//! Output digests and the recorded reference they are checked against.
//!
//! A digest pins a simulated output exactly: a wear map by its hottest
//! cell, its total writes and a hash over every cell; a sweep point by the
//! bits of its lifetime and improvement. A pure speed-up must leave every
//! digest unchanged.

use std::collections::BTreeMap;

use nvpim_core::sweep::SweepPoint;
use nvpim_core::SimResult;
use nvpim_obs::Json;

/// The reference recorded from the benchmark's defining commit.
const RECORDED: &str = include_str!("../reference.json");

/// Item name → digest text, for one (workload, scale, seed) set.
pub type Digests = BTreeMap<String, String>;

/// `max:total:hash` of a result's write map (FNV-1a over the cells in
/// row-major order).
#[must_use]
pub fn wear(result: &SimResult) -> String {
    let wear = &result.wear;
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for row in 0..wear.dims().rows() {
        for &writes in wear.row_writes(row) {
            hash = (hash ^ writes).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{}:{}:{hash:016x}", wear.max_writes(), wear.total_writes())
}

/// `lifetime-bits:improvement-bits` of one sweep point.
#[must_use]
pub fn sweep_point(point: &SweepPoint) -> String {
    format!(
        "{:016x}:{:016x}",
        point.lifetime_iterations.to_bits(),
        point.improvement_vs_never.to_bits()
    )
}

/// The key of one digest set in the reference file.
#[must_use]
pub fn set_key(workload: &str, scale: &str, seed: u64) -> String {
    format!("{workload}/{scale}/seed={seed}")
}

/// A reference: set key → item digests.
#[derive(Debug, Default)]
pub struct Reference(BTreeMap<String, Digests>);

impl Reference {
    /// The reference compiled into the benchmark.
    ///
    /// # Panics
    ///
    /// Panics if the recorded file is malformed (a bug in this package).
    #[must_use]
    pub fn recorded() -> Self {
        Reference::parse(RECORDED).expect("reference.json is well-formed")
    }

    /// Parses a reference document.
    ///
    /// # Errors
    ///
    /// Fails when the text is not a JSON object of objects of strings.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = nvpim_obs::json::parse(text).map_err(|e| e.to_string())?;
        let Json::Obj(sets) = doc else {
            return Err("reference must be a JSON object".into());
        };
        let mut out = BTreeMap::new();
        for (key, items) in sets {
            let Json::Obj(items) = items else {
                return Err(format!("reference set `{key}` must be an object"));
            };
            let mut digests = Digests::new();
            for (item, digest) in items {
                let text = digest.as_str().ok_or(format!("digest `{key}/{item}` not a string"))?;
                digests.insert(item, text.to_owned());
            }
            out.insert(key, digests);
        }
        Ok(Reference(out))
    }

    /// The digests recorded for `key`, if any.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Digests> {
        self.0.get(key)
    }

    /// Stores (or replaces) one set.
    pub fn insert(&mut self, key: String, digests: Digests) {
        self.0.insert(key, digests);
    }

    /// Pretty JSON with sorted keys, one digest per line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut doc = Json::object();
        for (key, items) in &self.0 {
            let mut set = Json::object();
            for (item, digest) in items {
                set = set.with(item, digest.as_str());
            }
            doc = doc.with(key, set);
        }
        doc.render_pretty() + "\n"
    }
}

/// Items of `got` that are missing from `want` or differ from it, plus
/// items of `want` that `got` lacks.
#[must_use]
pub fn mismatches(want: &Digests, got: &Digests) -> Vec<String> {
    let mut bad: Vec<String> =
        got.iter().filter(|(k, v)| want.get(*k) != Some(*v)).map(|(k, _)| k.clone()).collect();
    bad.extend(want.keys().filter(|k| !got.contains_key(*k)).cloned());
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_round_trips() {
        let mut r = Reference::default();
        let mut d = Digests::new();
        d.insert("mul32/StxSt".into(), "1:2:00000000000000ff".into());
        r.insert(set_key("paper-matrix", "tiny", 0), d.clone());
        let back = Reference::parse(&r.render()).unwrap();
        assert_eq!(back.get("paper-matrix/tiny/seed=0"), Some(&d));
    }

    #[test]
    fn any_difference_is_a_mismatch() {
        let mut want = Digests::new();
        want.insert("a".into(), "1".into());
        want.insert("b".into(), "2".into());
        let mut got = want.clone();
        assert!(mismatches(&want, &got).is_empty());
        got.insert("a".into(), "9".into());
        got.remove("b");
        assert_eq!(mismatches(&want, &got), vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn recorded_reference_parses() {
        let _ = Reference::recorded();
    }
}
