//! Rendering answers and fingerprinting them for the Saturation oracle;
//! the seeded shuffle shares the hash mixer.

use std::fmt::Write as _;

use jucq_model::Term;

/// What identifies an answer independent of row order and of the
/// dictionary ids behind it: the row count and the wrapping sum of the
/// rendered rows' hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: usize,
    pub hash: u64,
}

/// Render decoded rows the way the CLI prints them: one row per line,
/// terms tab-separated in their Turtle-ish display form (literals are
/// debug-quoted, so a row never spans lines).
pub fn render(rows: &[Vec<Term>], out: &mut String) {
    for row in rows {
        for (i, term) in row.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            let _ = write!(out, "{term}");
        }
        out.push('\n');
    }
}

/// Fingerprint a rendered answer.
pub fn fingerprint(rendered: &str) -> Fingerprint {
    let mut rows = 0usize;
    let mut hash = 0u64;
    for line in rendered.split_terminator('\n') {
        rows += 1;
        hash = hash.wrapping_add(mix(fnv1a(line.as_bytes())));
    }
    Fingerprint { rows, hash }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: FNV's low bits are weak, and the row hashes
/// are summed.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64 as the benchmark's seeded generator (shuffles only).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
