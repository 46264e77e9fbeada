#![warn(missing_docs)]
//! Queueing-theoretic models from Schroeder et al. (ICDE 2006), §4.
//!
//! Two models drive the paper's MPL controller:
//!
//! * **Throughput vs. MPL** (§4.1, Figs. 6–7): the DBMS internals are
//!   modelled as a closed product-form network of exponential stations (one
//!   per CPU/disk, rates proportional to their utilization in the
//!   MPL-unlimited system). We solve it with exact Mean Value Analysis
//!   ([`mva`]) and extract the lowest MPL that achieves a target fraction of
//!   the maximum throughput ([`recommend`]).
//!
//! * **Response time vs. MPL** (§4.2, Figs. 8–10): external scheduling is an
//!   unbounded FIFO queue feeding a processor-sharing server that at most
//!   MPL jobs may share — the *flexible multiserver queue*. With 2-phase
//!   hyperexponential job sizes ([`h2`]) the system is a level-independent
//!   QBD process which we solve with the matrix-geometric method ([`flex`]),
//!   cross-checked by an exact block-tridiagonal solve of the truncated
//!   chain ([`ctmc`]).
//!
//! [`mg1`] provides the M/M/1, M/G/1 (Pollaczek–Khinchine) and M/G/1-PS
//! closed forms used as sanity anchors and as the PS reference line of
//! Fig. 10.

pub mod ctmc;
pub mod flex;
pub mod h2;
pub mod linalg;
pub mod mg1;
pub mod mva;
pub mod recommend;

pub use flex::{FlexServer, QueueingError};
pub use h2::H2;
pub use linalg::Mat;
pub use mva::ClosedNetwork;
pub use recommend::{min_mpl_for_response_time, min_mpl_for_throughput, ThroughputModel};
