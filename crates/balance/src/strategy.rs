//! Strategy names and configuration matrix.

use std::fmt;
use std::str::FromStr;

/// One software re-mapping strategy, applicable within lanes (rows) or
/// between lanes (columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// `St`: no re-mapping; the identity layout forever.
    Static,
    /// `Ra`: a fresh uniformly random permutation at every re-mapping
    /// opportunity. Most effective, but scatters the bits of a variable
    /// (problematic for row-parallel memory accesses, Fig. 8).
    Random,
    /// `Bs`: a cumulative shift by one byte (8 addresses) at every
    /// re-mapping opportunity. Keeps variables byte-aligned and
    /// access-friendly.
    ByteShift,
}

impl Strategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [Strategy::Static, Strategy::Random, Strategy::ByteShift];

    /// The paper's two-letter label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Static => "St",
            Strategy::Random => "Ra",
            Strategy::ByteShift => "Bs",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing a [`Strategy`] or [`BalanceConfig`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError {
    input: String,
}

impl ParseConfigError {
    /// The rejected input string, verbatim.
    #[must_use]
    pub fn input(&self) -> &str {
        &self.input
    }
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid balance configuration `{}`: expected `<row>x<col>` with an optional \
             `+Hw` suffix (e.g. `StxSt`, `RaxBs+Hw`), where each strategy is one of \
             `St`/`static`, `Ra`/`random`, `Bs`/`byte-shift`",
            self.input
        )
    }
}

impl std::error::Error for ParseConfigError {}

impl FromStr for Strategy {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "st" | "static" => Ok(Strategy::Static),
            "ra" | "random" => Ok(Strategy::Random),
            "bs" | "byteshift" | "byte-shift" => Ok(Strategy::ByteShift),
            _ => Err(ParseConfigError { input: s.to_owned() }),
        }
    }
}

/// A complete load-balancing configuration: row strategy × column strategy,
/// optionally with hardware re-mapping.
///
/// The paper evaluates all 3 × 3 software combinations with `Hw` on and off —
/// 18 configurations per benchmark (§4), labeled like `RaxBs+Hw` (row
/// strategy × column strategy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BalanceConfig {
    /// Within-lane (row) strategy.
    pub row: Strategy,
    /// Between-lane (column) strategy.
    pub col: Strategy,
    /// Whether hardware free-row re-mapping is enabled.
    pub hw: bool,
}

impl BalanceConfig {
    /// The paper's baseline: `StxSt`, no re-mapping of any kind.
    #[must_use]
    pub fn baseline() -> Self {
        BalanceConfig { row: Strategy::Static, col: Strategy::Static, hw: false }
    }

    /// Creates a configuration.
    #[must_use]
    pub fn new(row: Strategy, col: Strategy, hw: bool) -> Self {
        BalanceConfig { row, col, hw }
    }

    /// All 18 configurations, software combinations first without `Hw`
    /// (matching the layout of Figs. 14–16: panels a–i, then j–r).
    #[must_use]
    pub fn all() -> Vec<BalanceConfig> {
        let mut configs = Vec::with_capacity(18);
        for hw in [false, true] {
            for col in Strategy::ALL {
                for row in Strategy::ALL {
                    configs.push(BalanceConfig { row, col, hw });
                }
            }
        }
        configs
    }

    /// The nine software-only configurations (no `Hw`).
    #[must_use]
    pub fn software_only() -> Vec<BalanceConfig> {
        BalanceConfig::all().into_iter().filter(|c| !c.hw).collect()
    }

    /// The paper's label, `<row>x<col>` plus `+Hw` (e.g. `RaxBs+Hw`), as a
    /// static string, so spans and metrics can carry it without allocating.
    #[must_use]
    pub fn label(&self) -> &'static str {
        const LABELS: [[[&str; 3]; 3]; 2] = [
            [["StxSt", "StxRa", "StxBs"], ["RaxSt", "RaxRa", "RaxBs"], ["BsxSt", "BsxRa", "BsxBs"]],
            [
                ["StxSt+Hw", "StxRa+Hw", "StxBs+Hw"],
                ["RaxSt+Hw", "RaxRa+Hw", "RaxBs+Hw"],
                ["BsxSt+Hw", "BsxRa+Hw", "BsxBs+Hw"],
            ],
        ];
        LABELS[usize::from(self.hw)][self.row as usize][self.col as usize]
    }

    /// Whether any re-mapping is active at all.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.row == Strategy::Static && self.col == Strategy::Static && !self.hw
    }
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig::baseline()
    }
}

impl fmt::Display for BalanceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for BalanceConfig {
    type Err = ParseConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseConfigError { input: s.to_owned() };
        let (body, hw) = match s.strip_suffix("+Hw").or_else(|| s.strip_suffix("+hw")) {
            Some(body) => (body, true),
            None => (s, false),
        };
        let (row, col) = body.split_once(['x', 'X']).ok_or_else(err)?;
        Ok(BalanceConfig {
            row: row.parse().map_err(|_| err())?,
            col: col.parse().map_err(|_| err())?,
            hw,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_configurations() {
        let all = BalanceConfig::all();
        assert_eq!(all.len(), 18);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 18);
        assert_eq!(BalanceConfig::software_only().len(), 9);
    }

    #[test]
    fn display_matches_paper_labels() {
        let c = BalanceConfig::new(Strategy::Random, Strategy::ByteShift, true);
        assert_eq!(c.to_string(), "RaxBs+Hw");
        assert_eq!(BalanceConfig::baseline().to_string(), "StxSt");
    }

    #[test]
    fn parse_round_trips() {
        for c in BalanceConfig::all() {
            let parsed: BalanceConfig = c.to_string().parse().expect("round trip");
            assert_eq!(parsed, c);
            assert_eq!(format!("{}x{}{}", c.row, c.col, if c.hw { "+Hw" } else { "" }), c.label());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("RaBs".parse::<BalanceConfig>().is_err());
        assert!("QqxSt".parse::<BalanceConfig>().is_err());
        assert!("".parse::<BalanceConfig>().is_err());
        let err = "bogus".parse::<BalanceConfig>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
        assert_eq!(err.input(), "bogus");
        // The message teaches the valid vocabulary, not just the rejection.
        for name in ["St", "Ra", "Bs", "+Hw", "random", "byte-shift"] {
            assert!(err.to_string().contains(name), "message should mention {name}");
        }
    }

    #[test]
    fn baseline_is_static() {
        assert!(BalanceConfig::baseline().is_static());
        assert!(!BalanceConfig::new(Strategy::Static, Strategy::Static, true).is_static());
        assert_eq!(BalanceConfig::default(), BalanceConfig::baseline());
    }

    #[test]
    fn strategy_parse_aliases() {
        assert_eq!("random".parse::<Strategy>().unwrap(), Strategy::Random);
        assert_eq!("BS".parse::<Strategy>().unwrap(), Strategy::ByteShift);
        assert_eq!("st".parse::<Strategy>().unwrap(), Strategy::Static);
    }
}
