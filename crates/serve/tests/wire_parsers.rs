//! Property test: the one wire grammar a connection thread runs on client
//! input, outside any lock, and the StreamSQL parser behind `ADMIT`
//! return `Ok` or `Err` and never panic — on arbitrary strings,
//! multi-byte UTF-8 and control characters included.

use aspen_join::control::Request;
use proptest::prelude::*;

/// Fragments the parsers branch on, numbers at and past their types'
/// limits, and characters whose UTF-8 is longer than one byte.
#[rustfmt::skip]
const PIECES: &[&str] = &[
    "ADMIT", "ADMITGRAPH", "RETIRE", "STEP", "RUN", "CYCLE", "RESULTS", "KILL", "REPORT",
    "CACHESTATS", "SUBSCRIBE", "OPEN", "USE", "CLOSE", "QUIT", "FEDOPEN", "LINK", "FEDADMIT",
    "FEDREPORT", "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "s", "t", "a",
    "b", "s.id", "t.u", "s, t", "[windowsize=2 sampleinterval=100]", "[", "]", "(", ")", "=",
    "<", ">=", "!=", "+", "-", "*", "/", ",", ".", ":", ";", "'", "\"", "q0", "g1", "nodes=",
    "degree=", "seed=", "members=", "homes=", "mode=", "loss=", "latency=", "budget=",
    "cycles=", "gateway", "shipbase", "innet-cmg", "naive", " ", "   ", "0", "1", "-1", "0.5",
    "1e309", "NaN", "inf", "18446744073709551616", "%", "%2", "%zz", "é", "界", "🦀",
    "e\u{301}", "\t", "\r", "\0", "\u{7f}", "\u{feff}",
];

/// One input string: each element picks a fragment (kinds 0–2) or a
/// code point from the whole Unicode range (kind 3).
fn render(parts: &[(u8, u32)]) -> String {
    parts
        .iter()
        .map(|&(kind, v)| match kind {
            0..=2 => PIECES[v as usize % PIECES.len()].to_string(),
            _ => char::from_u32(v % 0x11_0000)
                .unwrap_or('\u{fffd}')
                .to_string(),
        })
        .collect()
}

proptest! {
    #[test]
    fn wire_parsers_never_panic(
        parts in proptest::collection::vec((0u8..4, any::<u32>()), 0..40),
        cut in 0usize..64,
    ) {
        let s = render(&parts);
        // Every char-boundary prefix too: truncated input is the common
        // malformed line.
        let end = s.char_indices().map(|(i, _)| i).nth(cut).unwrap_or(s.len());
        for input in [s.as_str(), &s[..end]] {
            let _ = Request::decode(input);
            let _ = sensor_query::parse(input);
        }
    }
}
