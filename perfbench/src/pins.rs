//! Per-cell outcome digests pinned for the default seed.
//!
//! `pins/<workload>.txt` holds one `task digest` line per cell (digest in
//! hex). Regenerate with `--write-pins` on the default seed after a
//! change that is meant to alter outcomes, then rebuild.

use crate::workloads::Workload;

fn pinned_text(w: Workload) -> &'static str {
    match w {
        Workload::TputSweep => include_str!("../pins/tput_sweep.txt"),
        Workload::OpenRt => include_str!("../pins/open_rt.txt"),
        Workload::MplTune => include_str!("../pins/mpl_tune.txt"),
    }
}

fn file_name(w: Workload) -> &'static str {
    match w {
        Workload::TputSweep => "tput_sweep.txt",
        Workload::OpenRt => "open_rt.txt",
        Workload::MplTune => "mpl_tune.txt",
    }
}

/// The pinned digest of every cell, by task index.
pub fn pinned(w: Workload) -> Vec<Option<u64>> {
    let mut out = Vec::new();
    for line in pinned_text(w).lines() {
        let mut it = line.split_whitespace();
        let (Some(t), Some(d)) = (it.next(), it.next()) else {
            continue;
        };
        let t: usize = t.parse().expect("pin line starts with a task index");
        let d = u64::from_str_radix(d, 16).expect("pin digest is hex");
        if out.len() <= t {
            out.resize(t + 1, None);
        }
        out[t] = Some(d);
    }
    out
}

/// Cells whose digest is missing or differs from its pin (every cell, if
/// the pin file does not cover the plan).
pub fn mismatches(w: Workload, digests: &[Option<u64>]) -> usize {
    let pins = pinned(w);
    if pins.len() != digests.len() {
        return digests.len();
    }
    digests
        .iter()
        .zip(&pins)
        .filter(|(d, p)| d.is_none() || d != p)
        .count()
}

/// Rewrite `w`'s pin file from `digests`.
pub fn write(w: Workload, digests: &[Option<u64>]) {
    let body: String = digests
        .iter()
        .enumerate()
        .filter_map(|(t, d)| d.map(|d| format!("{t} {d:016x}\n")))
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("pins")
        .join(file_name(w));
    std::fs::write(&path, body).expect("write the pin file");
    eprintln!("[perfbench] wrote {}", path.display());
}
