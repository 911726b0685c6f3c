//! The snapshot and wire codec: the paper's two files (§4.1) as text.
//!
//! "The coordinator manages a possible failure of the farmer by
//! periodically saving, in two files, the contents of `INTERVALS` and
//! `SOLUTION`" — every 30 minutes in the paper's run, 4 094 176 total
//! checkpoint operations in Table 2. Here that save is a write-ahead log
//! compaction ([`crate::ShardRouter::compact_wal`]): it writes exactly
//! these two files as the `snap-{g}.intervals` and `snap-{g}.solution`
//! blobs of [`crate::wal`] (readable files on a
//! [`crate::FileBackend`]). The same codec carries interval endpoints on
//! the wire and in the run trace.
//!
//! The format is a line-oriented decimal text codec (no external
//! serialization dependency, human-auditable, exact big-integer round
//! trips):
//!
//! ```text
//! # INTERVALS file             # SOLUTION file
//! gridbnb-intervals v1         gridbnb-solution v1
//! 120 720                      cost 3679
//! 840 5040                     ranks 13 35 2 ...
//! ```
//!
//! [`decode_intervals`] is the v1 reader: it reads a single-coordinator
//! file and a sharded one (as the flat union) alike.

use gridbnb_bigint::UBig;
use gridbnb_coding::Interval;
use gridbnb_engine::Solution;
use std::fmt::Write as _;
use std::str::FromStr;

const INTERVALS_HEADER: &str = "gridbnb-intervals v1";
const SOLUTION_HEADER: &str = "gridbnb-solution v1";

/// Errors from decoding the codec's text.
#[derive(Debug)]
pub enum CheckpointError {
    /// Structural problem in an `INTERVALS` or `SOLUTION` text.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Encodes one interval as the codec's `begin end` decimal pair — the
/// unit every layer shares: snapshot files write one per line, the
/// network wire format length-prefixes one per payload slot. Decimal
/// text keeps big-integer round trips exact with no serialization
/// dependency.
pub fn encode_interval_line(interval: &Interval) -> String {
    format!("{} {}", interval.begin(), interval.end())
}

/// Decodes a `begin end` decimal pair. Unlike the file decoders this
/// preserves empty intervals — the wire protocol must round-trip an
/// `UpdateAck` whose intersected interval came back empty, while a
/// snapshot file has no use for them and drops them on load.
pub fn decode_interval_line(line: &str) -> Result<Interval, CheckpointError> {
    let mut parts = line.split_whitespace();
    let begin = parse_ubig(parts.next())?;
    let end = parse_ubig(parts.next())?;
    if parts.next().is_some() {
        return Err(CheckpointError::Corrupt(format!(
            "trailing tokens in interval {line:?}"
        )));
    }
    Ok(Interval::new(begin, end))
}

/// Serializes `INTERVALS` (one `begin end` pair per line, decimal).
pub fn encode_intervals(intervals: &[Interval]) -> String {
    let mut out = String::from(INTERVALS_HEADER);
    out.push('\n');
    for i in intervals {
        let _ = writeln!(out, "{}", encode_interval_line(i));
    }
    out
}

/// Parses an `INTERVALS` file as the flat union of all shards (a plain
/// v1 file is one shard); empty intervals are dropped. Shares one
/// parser with [`decode_sharded_intervals`], so the documented "the v1
/// decoder reads a sharded file as the flat union" guarantee holds by
/// construction.
pub fn decode_intervals(text: &str) -> Result<Vec<Interval>, CheckpointError> {
    Ok(decode_sharded_intervals(text)?.concat())
}

fn parse_ubig(token: Option<&str>) -> Result<UBig, CheckpointError> {
    let token = token.ok_or_else(|| CheckpointError::Corrupt("missing endpoint".into()))?;
    UBig::from_str(token).map_err(|e| CheckpointError::Corrupt(format!("bad endpoint: {e}")))
}

const SHARD_MARKER: &str = "# shard ";

/// Serializes per-shard `INTERVALS` (sharded coordination): shard `k`'s
/// intervals follow a `# shard k` marker line. Markers are comments to
/// the v1 decoder, so [`decode_intervals`] reads a sharded file as the
/// flat union — a single-coordinator restore of a sharded checkpoint
/// just works. With exactly one shard the output is byte-identical to
/// [`encode_intervals`]: at `S = 1` the sharded format *is* the
/// single-shard format.
pub fn encode_sharded_intervals(shards: &[Vec<Interval>]) -> String {
    if shards.len() == 1 {
        return encode_intervals(&shards[0]);
    }
    let mut out = String::from(INTERVALS_HEADER);
    out.push('\n');
    for (k, intervals) in shards.iter().enumerate() {
        let _ = writeln!(out, "{SHARD_MARKER}{k}");
        for i in intervals {
            let _ = writeln!(out, "{} {}", i.begin(), i.end());
        }
    }
    out
}

/// Parses an `INTERVALS` file into per-shard sets. A file without shard
/// markers — any v1 single-coordinator checkpoint — decodes as one
/// shard, so old checkpoints restore into a sharded router unchanged.
/// Markers must be sequential (`# shard 0`, `# shard 1`, ...); empty
/// intervals are dropped, empty shards are preserved.
pub fn decode_sharded_intervals(text: &str) -> Result<Vec<Vec<Interval>>, CheckpointError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == INTERVALS_HEADER => {}
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "bad intervals header: {other:?}"
            )))
        }
    }
    let mut shards: Vec<Vec<Interval>> = Vec::new();
    for (ln, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // A `# shard N` line is a marker only when N is an integer; any
        // other `#` line — including prose that happens to start with
        // "# shard" — keeps its v1 meaning of a comment, so old
        // annotated checkpoints still load.
        if let Some(index) = line
            .strip_prefix(SHARD_MARKER)
            .and_then(|rest| rest.trim().parse::<usize>().ok())
        {
            if index != shards.len() {
                return Err(CheckpointError::Corrupt(format!(
                    "shard marker {index} out of order on line {} (expected {})",
                    ln + 2,
                    shards.len()
                )));
            }
            shards.push(Vec::new());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        if shards.is_empty() {
            // Markerless v1 file: everything belongs to one shard.
            shards.push(Vec::new());
        }
        let interval = decode_interval_line(line).map_err(|CheckpointError::Corrupt(m)| {
            CheckpointError::Corrupt(format!("line {}: {m}", ln + 2))
        })?;
        if !interval.is_empty() {
            shards.last_mut().expect("shard bucket").push(interval);
        }
    }
    if shards.is_empty() {
        shards.push(Vec::new());
    }
    Ok(shards)
}

/// Serializes `SOLUTION`.
pub fn encode_solution(solution: Option<&Solution>) -> String {
    let mut out = String::from(SOLUTION_HEADER);
    out.push('\n');
    if let Some(s) = solution {
        let _ = writeln!(out, "cost {}", s.cost);
        let mut ranks = String::from("ranks");
        for r in &s.leaf_ranks {
            let _ = write!(ranks, " {r}");
        }
        out.push_str(&ranks);
        out.push('\n');
    } else {
        out.push_str("none\n");
    }
    out
}

/// Parses a `SOLUTION` file.
pub fn decode_solution(text: &str) -> Result<Option<Solution>, CheckpointError> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == SOLUTION_HEADER => {}
        other => {
            return Err(CheckpointError::Corrupt(format!(
                "bad solution header: {other:?}"
            )))
        }
    }
    let body: Vec<&str> = lines.map(str::trim).filter(|l| !l.is_empty()).collect();
    if body.first() == Some(&"none") {
        return Ok(None);
    }
    let cost_line = body
        .first()
        .ok_or_else(|| CheckpointError::Corrupt("missing cost line".into()))?;
    let cost = cost_line
        .strip_prefix("cost ")
        .and_then(|c| c.trim().parse::<u64>().ok())
        .ok_or_else(|| CheckpointError::Corrupt(format!("bad cost line: {cost_line:?}")))?;
    let ranks_line = body
        .get(1)
        .ok_or_else(|| CheckpointError::Corrupt("missing ranks line".into()))?;
    let ranks = ranks_line
        .strip_prefix("ranks")
        .ok_or_else(|| CheckpointError::Corrupt(format!("bad ranks line: {ranks_line:?}")))?
        .split_whitespace()
        .map(|t| {
            t.parse::<u64>()
                .map_err(|e| CheckpointError::Corrupt(format!("bad rank {t:?}: {e}")))
        })
        .collect::<Result<Vec<u64>, _>>()?;
    Ok(Some(Solution::new(cost, ranks)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(UBig::from(a), UBig::from(b))
    }

    #[test]
    fn interval_line_round_trips_including_empty() {
        for interval in [
            iv(7, 9),
            iv(5, 5),
            Interval::new(UBig::factorial(49), UBig::factorial(50)),
        ] {
            let line = encode_interval_line(&interval);
            assert_eq!(decode_interval_line(&line).unwrap(), interval);
        }
        assert!(decode_interval_line("1 2 3").is_err());
        assert!(decode_interval_line("abc 4").is_err());
        assert!(decode_interval_line("12").is_err());
    }

    #[test]
    fn intervals_round_trip() {
        let intervals = vec![iv(0, 120), iv(840, 5040)];
        let text = encode_intervals(&intervals);
        assert_eq!(decode_intervals(&text).unwrap(), intervals);
    }

    #[test]
    fn intervals_round_trip_at_ta056_scale() {
        let big = Interval::new(UBig::factorial(49), UBig::factorial(50));
        let text = encode_intervals(std::slice::from_ref(&big));
        assert_eq!(decode_intervals(&text).unwrap(), vec![big]);
    }

    #[test]
    fn empty_intervals_dropped_on_load() {
        let text = format!("{INTERVALS_HEADER}\n5 5\n7 9\n");
        assert_eq!(decode_intervals(&text).unwrap(), vec![iv(7, 9)]);
    }

    #[test]
    fn intervals_reject_bad_header() {
        assert!(decode_intervals("nonsense\n1 2\n").is_err());
    }

    #[test]
    fn intervals_reject_garbage_line() {
        let text = format!("{INTERVALS_HEADER}\n1 2 3\n");
        assert!(decode_intervals(&text).is_err());
        let text = format!("{INTERVALS_HEADER}\nabc 4\n");
        assert!(decode_intervals(&text).is_err());
        let text = format!("{INTERVALS_HEADER}\n12\n");
        assert!(decode_intervals(&text).is_err());
    }

    #[test]
    fn sharded_intervals_round_trip() {
        let shards = vec![vec![iv(0, 120), iv(200, 300)], vec![], vec![iv(840, 5040)]];
        let text = encode_sharded_intervals(&shards);
        assert_eq!(decode_sharded_intervals(&text).unwrap(), shards);
        // The v1 decoder reads the same file as the flat union.
        assert_eq!(
            decode_intervals(&text).unwrap(),
            vec![iv(0, 120), iv(200, 300), iv(840, 5040)]
        );
    }

    #[test]
    fn single_shard_encoding_is_the_v1_format() {
        let intervals = vec![iv(0, 120), iv(840, 5040)];
        let sharded = encode_sharded_intervals(std::slice::from_ref(&intervals));
        assert_eq!(sharded, encode_intervals(&intervals));
        assert_eq!(decode_sharded_intervals(&sharded).unwrap(), vec![intervals]);
    }

    #[test]
    fn markerless_v1_file_decodes_as_one_shard() {
        let text = encode_intervals(&[iv(7, 9), iv(20, 40)]);
        assert_eq!(
            decode_sharded_intervals(&text).unwrap(),
            vec![vec![iv(7, 9), iv(20, 40)]]
        );
        // An empty v1 file is one empty shard, not zero shards.
        assert_eq!(
            decode_sharded_intervals(&encode_intervals(&[])).unwrap(),
            vec![vec![]]
        );
    }

    #[test]
    fn sharded_markers_must_be_sequential() {
        let text = format!("{INTERVALS_HEADER}\n# shard 1\n1 2\n");
        assert!(decode_sharded_intervals(&text).is_err());
        let text = format!("{INTERVALS_HEADER}\n# shard 0\n1 2\n# shard 2\n3 4\n");
        assert!(decode_sharded_intervals(&text).is_err());
    }

    #[test]
    fn non_integer_shard_prefixed_lines_stay_v1_comments() {
        // "# shard x" is not a marker — v1 files with such annotations
        // must keep loading.
        let text = format!("{INTERVALS_HEADER}\n# shard x\n# shard count was 4 on host A\n1 2\n");
        assert_eq!(
            decode_sharded_intervals(&text).unwrap(),
            vec![vec![iv(1, 2)]]
        );
        assert_eq!(decode_intervals(&text).unwrap(), vec![iv(1, 2)]);
    }

    #[test]
    fn solution_round_trip() {
        let s = Solution::new(3679, vec![13, 35, 2, 0, 1]);
        let text = encode_solution(Some(&s));
        assert_eq!(decode_solution(&text).unwrap(), Some(s));
    }

    #[test]
    fn none_solution_round_trip() {
        let text = encode_solution(None);
        assert_eq!(decode_solution(&text).unwrap(), None);
    }

    #[test]
    fn solution_rejects_corruption() {
        assert!(decode_solution("bad\n").is_err());
        assert!(decode_solution(&format!("{SOLUTION_HEADER}\ncost x\nranks 1\n")).is_err());
        assert!(decode_solution(&format!("{SOLUTION_HEADER}\ncost 5\n")).is_err());
        assert!(decode_solution(&format!("{SOLUTION_HEADER}\ncost 5\nranks 1 b\n")).is_err());
    }
}
