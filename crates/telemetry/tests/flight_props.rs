//! Property tests for the flight recorder's bounded log.
//!
//! Randomized evidence, through the public `Telemetry` API, for the
//! recorder's bounded-history contract: however line lengths
//! interleave across the eviction boundary, the lines a dump records
//! ahead of its `flight` marker are a whole-line **suffix** of the
//! append history — oldest events are evicted, never torn, the newest
//! line always survives, and a line larger than the whole log is
//! dropped without disturbing the others.

use cirlearn_telemetry::json::Json;
use cirlearn_telemetry::Telemetry;
use proptest::prelude::*;

/// The flight log's capacity in bytes.
const LOG_BYTES: usize = 32 * 1024;

/// Payload length of a line that cannot fit the log on its own.
const OVERSIZE: usize = LOG_BYTES + 1;

/// Records one self-identifying `line` event per entry of `lens` (the
/// entry is the `pad` payload length), dumps the recorder and returns
/// the dumped lines ahead of the `flight` marker, as raw text.
fn record_and_dump(lens: &[usize], tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!(
        "cirlearn-flight-props-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("flight.jsonl");
    let t = Telemetry::recording();
    t.set_flight_dump_path(Some(path.clone()));
    for (i, len) in lens.iter().enumerate() {
        t.trace(
            "line",
            &[("i", Json::from(i)), ("pad", Json::from("x".repeat(*len)))],
        );
    }
    t.dump_flight("props")
        .expect("recorder on and dump path set");
    let dump = std::fs::read_to_string(&path).expect("dump written");
    let _ = std::fs::remove_dir_all(&dir);
    dump.lines()
        .take_while(|l| !l.contains("\"kind\":\"flight\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The `i` of each recorded line, checking that the line is whole and
/// carries the payload it was recorded with.
fn indices(recorded: &str, lens: &[usize]) -> Vec<usize> {
    recorded
        .lines()
        .map(|line| {
            let parsed = Json::parse(line).expect("recorded lines are whole JSON");
            let i = parsed.get("i").and_then(Json::as_u64).expect("index") as usize;
            let pad = parsed.get("pad").and_then(Json::as_str).expect("payload");
            assert_eq!(pad.len(), lens[i], "line {i} kept its whole payload");
            i
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_is_a_whole_line_suffix_of_the_history(
        lens in proptest::collection::vec(
            // One line in twenty is too large for the whole log.
            (0usize..3_000, 0u8..20)
                .prop_map(|(len, pick)| if pick == 0 { OVERSIZE } else { len }),
            1..60,
        ),
    ) {
        let recorded = record_and_dump(&lens, "suffix");
        prop_assert!(recorded.len() <= LOG_BYTES, "the log stays within its capacity");
        let kept = indices(&recorded, &lens);
        // The survivors are exactly the newest lines that fit: the
        // tail of the history with the oversize lines taken out.
        let fits: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] < OVERSIZE).collect();
        prop_assert!(kept.len() <= fits.len());
        prop_assert_eq!(&kept[..], &fits[fits.len() - kept.len()..]);
        if !fits.is_empty() {
            prop_assert!(!kept.is_empty(), "the newest line always survives");
        }
    }

    #[test]
    fn wrapped_ring_never_reports_stale_or_duplicate_lines(
        lens in proptest::collection::vec(0usize..12, 600..1_200),
    ) {
        // Many small lines: hundreds of evictions per run.
        let recorded = record_and_dump(&lens, "churn");
        let kept = indices(&recorded, &lens);
        prop_assert!(kept.len() < lens.len(), "the history outgrew the log");
        // Surviving lines are a contiguous, strictly increasing run
        // ending at the newest append: no duplicates, no resurrection
        // of evicted lines, no gaps.
        for pair in kept.windows(2) {
            prop_assert_eq!(pair[1], pair[0] + 1, "consecutive survivors");
        }
        prop_assert_eq!(kept.last().copied(), Some(lens.len() - 1), "newest line survives");
    }
}
