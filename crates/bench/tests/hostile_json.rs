//! Hostile-input properties of the JSON reader and of the streaming
//! Chrome-trace reader: a damaged `--trace-out` document (truncated,
//! byte-flipped, with absurd numbers or `\u` escapes) must give `Err` or a
//! value, never a panic, the same outcome as parsing it into a tree and
//! inverting that (or, for bytes that are not UTF-8, the error of reading
//! them into a string). `json_read_scaling.rs` checks that reading costs
//! time linear in a document's size.

use proptest::prelude::*;
use se_bench::json::Json;
use se_bench::obs_export::{chrome_trace, events_from_chrome_trace, read_chrome_trace};
use se_obs::{Event, EventKind};
use std::sync::OnceLock;

/// Two lanes of every event kind, `rounds` times over.
fn streams(rounds: u64) -> Vec<(String, Vec<Event>)> {
    let kinds = [
        EventKind::Admitted { id: 0, model: 1, instance: 0 },
        EventKind::QueueDepth { instance: 0, depth: 3 },
        EventKind::Rejected { id: 1, model: 0 },
        EventKind::Lost { id: 2, model: 1 },
        EventKind::TierHit { instance: 0, model: 1 },
        EventKind::TierPromoted { instance: 0, model: 2, from: 2, cycles: 40, bytes: 128 },
        EventKind::TierDemoted { instance: 0, model: 3, to: 1, bytes: 64, dropped: false },
        EventKind::TierColdFetch { instance: 0, model: 5, cycles: 90, bytes: 256 },
        EventKind::TierStreamed { instance: 0, model: 6, cycles: 70 },
        EventKind::BatchFormed { seq: 0, instance: 0, model: 1, size: 2 },
        EventKind::BatchLaunched { seq: 0, instance: 0, model: 1, size: 2, done: 60 },
        EventKind::Served {
            id: 0,
            model: 1,
            instance: 0,
            batch: 0,
            enqueued: 4,
            latency: 60,
            missed: true,
        },
        EventKind::BatchCompleted { seq: 0, instance: 0, size: 2 },
        EventKind::BatchKilled { seq: 1, instance: 1 },
        EventKind::InstanceKilled { instance: 1, in_flight: 2, rerouted: 1, lost: 1 },
        EventKind::InstanceRestarted { instance: 1 },
        EventKind::InstanceSpawned { instance: 2 },
        EventKind::InstanceDraining { instance: 2 },
    ];
    let lane = |offset: u64| {
        let events = kinds.iter().cycle().take(kinds.len() * rounds as usize);
        events
            .enumerate()
            .map(|(i, kind)| Event { at: offset + i as u64 * 3, kind: kind.clone() })
            .collect()
    };
    vec![("lane \u{e9}".to_string(), lane(0)), ("lane 2".to_string(), lane(1))]
}

/// The rendered Chrome trace of [`streams`]`(rounds)`.
fn document(rounds: u64) -> String {
    let streams = streams(rounds);
    let views: Vec<(String, &[Event])> =
        streams.iter().map(|(label, events)| (label.clone(), events.as_slice())).collect();
    chrome_trace(&views).render()
}

fn fixture() -> &'static String {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| {
        let doc = document(1);
        let back = events_from_chrome_trace(&Json::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, streams(1), "the fixture round-trips");
        doc
    })
}

type Streams = Vec<(String, Vec<Event>)>;

/// Reads `text` the way `se obs` does, streaming. Any outcome but a panic
/// is acceptable here; the properties assert which one.
fn read(text: &str) -> Result<Streams, String> {
    read_chrome_trace(text.as_bytes()).map_err(|e| e.to_string())
}

/// Reads `text` through a tree: parse, then invert.
fn read_tree(text: &str) -> Result<Streams, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    events_from_chrome_trace(&doc).map_err(|e| e.to_string())
}

/// Whether the streaming and the tree reading of `text` agree: both
/// `Err`, or the same streams.
fn agree(text: &str) -> Result<(), TestCaseError> {
    match (read(text), read_tree(text)) {
        (Ok(streamed), Ok(tree)) => prop_assert_eq!(streamed, tree),
        (Err(_), Err(_)) => {}
        (streamed, tree) => {
            prop_assert!(
                false,
                "streamed {:?} but tree {:?}",
                streamed.map(|_| ()),
                tree.map(|_| ())
            )
        }
    }
    Ok(())
}

/// [`agree`] on `bytes` that are UTF-8; on any others the streaming
/// reader must fail as reading the file into a string first does.
fn agree_bytes(bytes: Vec<u8>) -> Result<(), TestCaseError> {
    match String::from_utf8(bytes) {
        Ok(text) => agree(&text),
        Err(e) => {
            let outcome = read_chrome_trace(e.as_bytes()).map_err(|e| e.to_string());
            prop_assert_eq!(outcome, Err("stream did not contain valid UTF-8".to_string()));
            Ok(())
        }
    }
}

/// `doc` on one line with no whitespace, each object's keys rotated left
/// by `turn` (modulo its length): a layout and key order the writer never
/// uses.
fn compact(doc: &Json, turn: usize) -> String {
    match doc {
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(|item| compact(item, turn)).collect();
            format!("[{}]", items.join(","))
        }
        Json::Obj(fields) => {
            let mut fields: Vec<String> = fields
                .iter()
                .map(|(key, value)| {
                    format!("{}:{}", compact(&Json::Str(key.clone()), turn), compact(value, turn))
                })
                .collect();
            if !fields.is_empty() {
                let len = fields.len();
                fields.rotate_left(turn % len);
            }
            format!("{{{}}}", fields.join(","))
        }
        scalar => scalar.render().trim_end().to_string(),
    }
}

/// Byte spans of the values of numeric field `"name"` that the inverter
/// reads: those of every event, and the `pid` of metadata entries (their
/// `tid` only names a thread).
fn numeric_fields(text: &str, name: &str) -> Vec<(usize, usize)> {
    let key = format!("\"{name}\": ");
    let mut spans = Vec::new();
    for (at, _) in text.match_indices(&key) {
        let entry = &text[text[..at].rfind('{').unwrap()..at];
        if name == "tid" && entry.contains("\"ph\": \"M\"") {
            continue;
        }
        let start = at + key.len();
        let len = text[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
        spans.push((start, start + len));
    }
    spans
}

/// Numbers no `u64` field can hold: negative, fractional, beyond `u64`,
/// infinite once parsed, or not numbers at all.
const ABSURD: [&str; 9] = [
    "-1",
    "1.5",
    "18446744073709551616",
    "1e400",
    "-1e400",
    "1e",
    "--3",
    "0x10",
    "99999999999999999999999999999999",
];

/// Escapes a reader must refuse: lone surrogates, short or signed hex,
/// non-hex digits and an escape running into the closing quote.
const BAD_ESCAPES: [&str; 7] =
    ["\\uD800", "\\uDFFF", "\\u12", "\\u+041", "\\uZZZZ", "\\u", "\\x41"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_is_an_error(cut in any::<usize>()) {
        let doc = fixture();
        // Anything short of the closing brace is an unfinished document.
        let end = doc.trim_end().len();
        let cut = cut % end;
        let bytes = &doc.as_bytes()[..cut];
        prop_assert!(read_chrome_trace(bytes).is_err(), "cut at {} of {} decoded", cut, end);
        if let Ok(text) = std::str::from_utf8(bytes) {
            prop_assert!(Json::parse(text).is_err());
        }
        agree_bytes(bytes.to_vec())?;
    }

    #[test]
    fn flipped_bytes_never_panic(at in any::<usize>(), mask in 1u16..256) {
        let mut bytes = fixture().clone().into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= mask as u8;
        // A flip can leave valid JSON (a digit for a digit) or a trace the
        // inverter accepts; it must never panic.
        agree_bytes(bytes)?;
    }

    #[test]
    fn compact_reordered_traces_read_back(turn in any::<usize>(), at in any::<usize>(), mask in 1u16..256) {
        // One line, keys in any order, as hand-written traces have them.
        let text = compact(&Json::parse(fixture()).unwrap(), turn);
        prop_assert_eq!(read(&text), Ok(streams(1)));
        let mut bytes = text.into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= mask as u8;
        agree_bytes(bytes)?;
    }

    #[test]
    fn absurd_numbers_are_errors(field in any::<usize>(), pick in any::<usize>(), which in 0usize..4) {
        let doc = fixture();
        let name = ["ts", "pid", "tid", "dur"][which];
        let spans = numeric_fields(doc, name);
        let (start, end) = spans[field % spans.len()];
        let absurd = ABSURD[pick % ABSURD.len()];
        let text = format!("{}{}{}", &doc[..start], absurd, &doc[end..]);
        let outcome = read(&text);
        prop_assert!(outcome.is_err(), "`{}` = {} decoded: {:?}", name, absurd, outcome);
        agree(&text)?;
    }

    #[test]
    fn bad_escapes_are_errors(label in 0usize..2, pick in any::<usize>(), at in 0usize..8) {
        let doc = fixture();
        let name = ["lane \u{e9}", "lane 2"][label];
        let escape = BAD_ESCAPES[pick % BAD_ESCAPES.len()];
        let quoted = format!("\"{name}\"");
        let start = doc.find(&quoted).unwrap() + 1;
        let mut cut = start + at.min(name.len());
        while !doc.is_char_boundary(cut) {
            cut -= 1;
        }
        let text = format!("{}{}{}", &doc[..cut], escape, &doc[cut..]);
        prop_assert!(Json::parse(&text).is_err(), "escape {} at {} parsed", escape, cut);
        prop_assert!(read(&text).is_err(), "escape {} at {} read", escape, cut);
    }
}

#[test]
fn launches_ending_past_the_clock_are_errors() {
    // The largest f64 below 2^64: a valid `ts`, but `ts + dur` overflows.
    let doc = fixture();
    let (start, end) = numeric_fields(doc, "dur")[0];
    let at = doc[..start].rfind("\"ts\": ").unwrap() + "\"ts\": ".len();
    let ts_end = at + doc[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let text = format!(
        "{}18446744073709549568{}{}{}",
        &doc[..at],
        &doc[ts_end..start],
        "18446744073709549568",
        &doc[end..]
    );
    let err = read(&text).unwrap_err();
    assert!(err.contains("overflows"), "{err}");
}

#[test]
fn valid_escapes_still_decode() {
    assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("A\u{e9}".into()));
}
