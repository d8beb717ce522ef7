//! Checked products: what each workload's operations return, in a
//! canonical text form, compared against the values recorded in
//! `expected/`.
//!
//! Every operation contributes one line, `id<TAB>text`. Floats are
//! written with Rust's shortest round-trip formatting, so equal text
//! means bit-equal values. A recorded file exists for the default seed
//! and one held-out seed of each size; those are compared exactly. For
//! any other seed, operations whose value cannot depend on the seed are
//! still compared exactly against the default seed's file, and the
//! others must agree with it within the workload's tolerance.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// How an operation's value relates to the workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedUse {
    /// Analytic: identical for every seed.
    Independent,
    /// Simulated under the seed: exact only where recorded.
    Seeded,
}

/// One checked operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Stable identifier, unique within the workload.
    pub id: String,
    /// Canonical value text.
    pub text: String,
    /// Whether the value depends on the seed.
    pub seed_use: SeedUse,
}

/// The checked products of one job, in operation order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Product {
    /// The operations.
    pub ops: Vec<Op>,
}

impl Product {
    /// Appends an operation.
    pub fn push(&mut self, id: impl Into<String>, text: impl Into<String>, seed_use: SeedUse) {
        self.ops.push(Op {
            id: id.into(),
            text: text.into(),
            seed_use,
        });
    }

    /// The recorded-file form: one `id<TAB>text` line per operation.
    #[must_use]
    pub fn to_text(&self) -> String {
        self.ops
            .iter()
            .map(|op| format!("{}\t{}\n", op.id, op.text))
            .collect()
    }
}

/// Space-separated shortest round-trip forms of `values`.
#[must_use]
pub fn floats(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Parses [`floats`] output back (non-numeric tokens are skipped).
#[must_use]
pub fn parse_floats(text: &str) -> Vec<f64> {
    text.split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect()
}

/// FNV-1a 64-bit hash.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The directory holding the recorded products.
#[must_use]
pub fn expected_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// The recorded file for a workload, size and seed.
#[must_use]
pub fn expected_path(workload: &str, size: &str, seed: u64) -> PathBuf {
    expected_dir().join(format!("{workload}-{size}-seed{seed}.txt"))
}

fn read_expected(workload: &str, size: &str, seed: u64) -> Option<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(expected_path(workload, size, seed)).ok()?;
    Some(
        text.lines()
            .filter_map(|line| line.split_once('\t'))
            .map(|(id, value)| (id.to_owned(), value.to_owned()))
            .collect(),
    )
}

/// Compares `product` with the recorded values and returns one message
/// per failed operation (empty when all match). `tolerant` decides a
/// seeded operation under a seed with no recording of its own, given
/// the operation and the default seed's text for it.
pub fn check(
    product: &Product,
    workload: &str,
    size: &str,
    seed: u64,
    default_seed: u64,
    tolerant: impl Fn(&Op, &str) -> bool,
) -> Vec<String> {
    let (recorded, exact) = match read_expected(workload, size, seed) {
        Some(recorded) => (recorded, true),
        None => match read_expected(workload, size, default_seed) {
            Some(recorded) => (recorded, false),
            None => {
                return vec![format!(
                    "no recorded values at {}",
                    expected_path(workload, size, default_seed).display()
                )]
            }
        },
    };
    let mut failures = Vec::new();
    for op in &product.ops {
        let Some(want) = recorded.get(&op.id) else {
            failures.push(format!("{}: no recorded value", op.id));
            continue;
        };
        let ok = if exact || op.seed_use == SeedUse::Independent {
            *want == op.text
        } else {
            tolerant(op, want)
        };
        if !ok {
            failures.push(format!("{}: got '{}', recorded '{}'", op.id, op.text, want));
        }
    }
    if recorded.len() != product.ops.len() {
        failures.push(format!(
            "{} operations produced, {} recorded",
            product.ops.len(),
            recorded.len()
        ));
    }
    failures
}

/// `true` if `got` is within `rel` relative (or `abs` absolute) of
/// `want`.
#[must_use]
pub fn close(got: f64, want: f64, rel: f64, abs: f64) -> bool {
    (got - want).abs() <= abs.max(rel * want.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_exactly() {
        let values = [0.1 + 0.2, 1e-300, 123_456.789, 0.0];
        let parsed = parse_floats(&floats(&values));
        for (a, b) in values.iter().zip(&parsed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
