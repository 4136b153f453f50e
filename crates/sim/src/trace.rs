//! Structured trace events — the observable form of a simulation run.
//!
//! Every run of [`crate::Network`] produces a totally ordered stream of
//! [`TraceEvent`]s: round boundaries, transmissions, deliveries, channel
//! interference, decisions, and protocol-level notes (see
//! [`crate::Ctx::note`]). The stream is a pure function of the network's
//! inputs, so two runs of the same experiment — at any worker-thread
//! count — serialize to byte-identical JSONL.
//!
//! The legacy delivery-trace hash is *derived from this stream by
//! construction*: the network folds exactly the words returned by
//! [`TraceEvent::fold_into`] into its FNV-1a accumulator, and
//! [`replay_hash`] re-derives the same hash from a serialized stream, so
//! the two representations can never diverge.

use crate::Round;
use std::io::Write;

/// FNV-1a offset basis — the trace hash's initial value.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME_POWERS[k]` is `FNV_PRIME^k`: the effect of folding `k` zero
/// bytes, since XOR with zero leaves the accumulator unchanged.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Folds words into an FNV-1a accumulator, byte by byte, little-endian.
///
/// Trace words are mostly small (rounds, indices, node ids), so only a
/// word's bytes up to its highest non-zero one are folded one by one;
/// the zero bytes above it cost one multiplication by a precomputed
/// power of the prime. The result is bit-identical to the plain fold.
pub fn fold_words(hash: &mut u64, words: &[u64]) {
    for &w in words {
        let mut h = *hash;
        let mut rest = w;
        let mut folded = 0;
        while rest != 0 {
            h ^= rest & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
            rest >>= 8;
            folded += 1;
        }
        *hash = h.wrapping_mul(PRIME_POWERS[8 - folded]);
    }
}

/// One-shot FNV-1a digest of a word sequence — the same fold the trace
/// hash uses, for compact fingerprints carried in [`TraceEvent::Note`]
/// payloads (e.g. a digest of the evidence a commit rested on).
#[must_use]
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = FNV_OFFSET;
    for w in words {
        fold_words(&mut hash, &[w]);
    }
    hash
}

/// One typed event in a run's trace stream.
///
/// Node and transmission identities are plain indices (not
/// [`rbcast_grid::NodeId`]) so the event is a self-contained record
/// independent of any live network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A delivery round began with `on_air` transmissions pending.
    RoundStart {
        /// Round number (1-based, matching [`crate::RoundReport`]).
        round: Round,
        /// Transmissions on the air this round.
        on_air: u64,
    },
    /// One transmission on the air, in global delivery order.
    Transmission {
        /// Round in which it is delivered.
        round: Round,
        /// Position in this round's global transmission order.
        index: u64,
        /// True transmitter's node index.
        sender: u64,
        /// Identity the channel reports (differs from `sender` only
        /// under the §X spoofing relaxation).
        claimed: u64,
    },
    /// A delivery destroyed by a deliberate collision (§X jamming).
    Jammed {
        /// Delivery round.
        round: Round,
        /// Transmission index within the round.
        index: u64,
        /// Receiver that lost the delivery.
        receiver: u64,
        /// The jammer responsible.
        jammer: u64,
    },
    /// A delivery destroyed by probabilistic channel loss.
    Lost {
        /// Delivery round.
        round: Round,
        /// Transmission index within the round.
        index: u64,
        /// Receiver that lost the delivery.
        receiver: u64,
    },
    /// A successful delivery — one of the two event kinds the trace
    /// hash folds.
    Delivery {
        /// Delivery round.
        round: Round,
        /// Transmission index within the round.
        index: u64,
        /// Receiving node.
        receiver: u64,
        /// Claimed sender identity, as the receiver observed it.
        claimed: u64,
    },
    /// A protocol-level annotation recorded via [`crate::Ctx::note`] —
    /// e.g. the indirect protocol accepting commit evidence.
    Note {
        /// Round in which the note was recorded.
        round: Round,
        /// The annotating node.
        node: u64,
        /// Static label naming the occurrence (e.g. `"commit-evidence"`).
        label: &'static str,
        /// Free payload word.
        value: u64,
    },
    /// A node committed (first observed at this round's end; nodes are
    /// scanned in index order, so the stream order is deterministic).
    Decision {
        /// Round the decision was recorded.
        round: Round,
        /// The deciding node.
        node: u64,
        /// The committed value.
        value: bool,
    },
    /// A delivery round ended — the other hashed event kind.
    RoundEnd {
        /// Round number.
        round: Round,
        /// Total nodes decided after this round.
        decided: u64,
        /// True when the hash froze at (or before) this round's end:
        /// no later event contributes to the hash.
        frozen: bool,
    },
}

impl TraceEvent {
    /// Folds this event's hash contribution into `hash`. Only
    /// [`TraceEvent::Delivery`] and [`TraceEvent::RoundEnd`] contribute;
    /// the words match the network's historical fold exactly.
    pub fn fold_into(&self, hash: &mut u64) {
        match *self {
            TraceEvent::Delivery {
                round,
                index,
                receiver,
                claimed,
            } => fold_words(hash, &[u64::from(round), index, receiver, claimed]),
            TraceEvent::RoundEnd { round, decided, .. } => {
                fold_words(hash, &[u64::from(round), decided]);
            }
            _ => {}
        }
    }

    /// Serializes the event as one line of JSON (no trailing newline).
    /// Keys are emitted in a fixed order, so equal events serialize to
    /// equal bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        match *self {
            TraceEvent::RoundStart { round, on_air } => {
                format!("{{\"ev\":\"round_start\",\"round\":{round},\"on_air\":{on_air}}}")
            }
            TraceEvent::Transmission {
                round,
                index,
                sender,
                claimed,
            } => format!(
                "{{\"ev\":\"tx\",\"round\":{round},\"index\":{index},\
                 \"sender\":{sender},\"claimed\":{claimed}}}"
            ),
            TraceEvent::Jammed {
                round,
                index,
                receiver,
                jammer,
            } => format!(
                "{{\"ev\":\"jam\",\"round\":{round},\"index\":{index},\
                 \"receiver\":{receiver},\"jammer\":{jammer}}}"
            ),
            TraceEvent::Lost {
                round,
                index,
                receiver,
            } => format!(
                "{{\"ev\":\"loss\",\"round\":{round},\"index\":{index},\"receiver\":{receiver}}}"
            ),
            TraceEvent::Delivery {
                round,
                index,
                receiver,
                claimed,
            } => format!(
                "{{\"ev\":\"delivery\",\"round\":{round},\"index\":{index},\
                 \"receiver\":{receiver},\"claimed\":{claimed}}}"
            ),
            TraceEvent::Note {
                round,
                node,
                label,
                value,
            } => format!(
                "{{\"ev\":\"note\",\"round\":{round},\"node\":{node},\
                 \"label\":\"{label}\",\"value\":{value}}}"
            ),
            TraceEvent::Decision { round, node, value } => {
                format!(
                    "{{\"ev\":\"decision\",\"round\":{round},\"node\":{node},\"value\":{value}}}"
                )
            }
            TraceEvent::RoundEnd {
                round,
                decided,
                frozen,
            } => format!(
                "{{\"ev\":\"round_end\",\"round\":{round},\"decided\":{decided},\
                 \"frozen\":{frozen}}}"
            ),
        }
    }
}

/// A consumer of trace events. The network calls [`TraceSink::record`]
/// for every event, in stream order, and [`TraceSink::flush`] once at
/// the end of each run.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);
    /// Flushes any buffering; called at the end of a run.
    fn flush(&mut self) {}
}

/// A [`TraceSink`] serializing every event as one JSON line.
///
/// Write errors are sticky: the first failure is remembered and
/// subsequent events are dropped (a trace is diagnostics, not simulation
/// state — it must never abort a run).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    failed: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            failed: false,
        }
    }

    /// True once any write has failed.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.failed
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.failed {
            return;
        }
        if writeln!(self.writer, "{}", event.to_json()).is_err() {
            self.failed = true;
        }
    }

    fn flush(&mut self) {
        if self.writer.flush().is_err() {
            self.failed = true;
        }
    }
}

/// A [`TraceSink`] collecting events in memory (for tests and
/// programmatic inspection).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The recorded stream, in order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Re-derives the delivery-trace hash from an event stream.
///
/// Folding stops after the first [`TraceEvent::RoundEnd`] carrying
/// `frozen: true` — exactly where the live network froze its hash.
#[must_use]
pub fn replay_hash_events(events: &[TraceEvent]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut frozen = false;
    for ev in events {
        if frozen {
            break;
        }
        ev.fold_into(&mut hash);
        if let TraceEvent::RoundEnd { frozen: f, .. } = ev {
            frozen = *f;
        }
    }
    hash
}

/// Re-derives the delivery-trace hash from serialized JSONL (the output
/// of a [`JsonlSink`]). Returns an error describing the first malformed
/// line, if any.
pub fn replay_hash(jsonl: &str) -> Result<u64, String> {
    // Error text lives in a helper so the per-line happy path never
    // allocates; it only runs on malformed input.
    fn line_err(lineno: usize, what: &str) -> String {
        format!("line {}: {what}", lineno + 1)
    }
    let mut hash = FNV_OFFSET;
    for (lineno, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let ev =
            json_field_str(line, "ev").ok_or_else(|| line_err(lineno, "missing \"ev\" field"))?;
        match ev {
            "delivery" => {
                let words = [
                    json_field_u64(line, "round"),
                    json_field_u64(line, "index"),
                    json_field_u64(line, "receiver"),
                    json_field_u64(line, "claimed"),
                ];
                let words: Vec<u64> = words
                    .into_iter()
                    .collect::<Option<Vec<u64>>>()
                    .ok_or_else(|| line_err(lineno, "malformed delivery"))?;
                fold_words(&mut hash, &words);
            }
            "round_end" => {
                let round = json_field_u64(line, "round")
                    .ok_or_else(|| line_err(lineno, "malformed round_end"))?;
                let decided = json_field_u64(line, "decided")
                    .ok_or_else(|| line_err(lineno, "malformed round_end"))?;
                fold_words(&mut hash, &[round, decided]);
                match json_field_str(line, "frozen") {
                    Some("true") => return Ok(hash),
                    Some("false") => {}
                    _ => return Err(line_err(lineno, "malformed round_end")),
                }
            }
            _ => {}
        }
    }
    Ok(hash)
}

/// Extracts the raw token following `"key":` on a single well-formed
/// JSON line produced by [`TraceEvent::to_json`] — a quoted string's
/// contents or a bare literal (number / bool). Keys never repeat on one
/// line, so the first occurrence is the value.
fn json_field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    if let Some(quoted) = rest.strip_prefix('"') {
        let end = quoted.find('"')?;
        Some(&quoted[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn json_field_u64(line: &str, key: &str) -> Option<u64> {
    json_field_str(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_manual_fnv() {
        // Small words, zero, interior zero bytes and full-width words:
        // the zero-high-byte shortcut must agree with the plain fold.
        let words = [
            1u64,
            2,
            3,
            0,
            0xff,
            0x100,
            0x00ab_0000_00cd,
            1 << 63,
            u64::MAX,
        ];
        let mut hash = FNV_OFFSET;
        fold_words(&mut hash, &words);
        let mut manual = FNV_OFFSET;
        for w in words {
            for b in w.to_le_bytes() {
                manual ^= u64::from(b);
                manual = manual.wrapping_mul(FNV_PRIME);
            }
        }
        assert_eq!(hash, manual);
    }

    #[test]
    fn only_deliveries_and_round_ends_fold() {
        let silent = [
            TraceEvent::RoundStart {
                round: 1,
                on_air: 3,
            },
            TraceEvent::Transmission {
                round: 1,
                index: 0,
                sender: 4,
                claimed: 4,
            },
            TraceEvent::Jammed {
                round: 1,
                index: 0,
                receiver: 5,
                jammer: 6,
            },
            TraceEvent::Lost {
                round: 1,
                index: 0,
                receiver: 5,
            },
            TraceEvent::Note {
                round: 1,
                node: 5,
                label: "x",
                value: 9,
            },
            TraceEvent::Decision {
                round: 1,
                node: 5,
                value: true,
            },
        ];
        for ev in &silent {
            let mut hash = FNV_OFFSET;
            ev.fold_into(&mut hash);
            assert_eq!(hash, FNV_OFFSET, "{ev:?} must not fold");
        }
        let mut hash = FNV_OFFSET;
        TraceEvent::Delivery {
            round: 1,
            index: 0,
            receiver: 5,
            claimed: 4,
        }
        .fold_into(&mut hash);
        assert_ne!(hash, FNV_OFFSET);
    }

    #[test]
    fn jsonl_roundtrip_rederives_the_hash() {
        let events = vec![
            TraceEvent::RoundStart {
                round: 1,
                on_air: 1,
            },
            TraceEvent::Transmission {
                round: 1,
                index: 0,
                sender: 7,
                claimed: 7,
            },
            TraceEvent::Delivery {
                round: 1,
                index: 0,
                receiver: 8,
                claimed: 7,
            },
            TraceEvent::Decision {
                round: 1,
                node: 8,
                value: true,
            },
            TraceEvent::RoundEnd {
                round: 1,
                decided: 1,
                frozen: false,
            },
            TraceEvent::Delivery {
                round: 2,
                index: 0,
                receiver: 9,
                claimed: 8,
            },
            TraceEvent::RoundEnd {
                round: 2,
                decided: 2,
                frozen: true,
            },
        ];
        let mut sink = JsonlSink::new(Vec::new());
        for ev in &events {
            sink.record(ev);
        }
        TraceSink::flush(&mut sink);
        assert!(!sink.failed());
        let jsonl = String::from_utf8(sink.writer).expect("trace is utf-8");
        assert_eq!(
            replay_hash(&jsonl).expect("well-formed"),
            replay_hash_events(&events)
        );
    }

    #[test]
    fn replay_stops_folding_at_the_freeze() {
        let prefix = vec![
            TraceEvent::Delivery {
                round: 1,
                index: 0,
                receiver: 2,
                claimed: 1,
            },
            TraceEvent::RoundEnd {
                round: 1,
                decided: 1,
                frozen: true,
            },
        ];
        let mut with_tail = prefix.clone();
        with_tail.push(TraceEvent::Delivery {
            round: 2,
            index: 0,
            receiver: 3,
            claimed: 2,
        });
        with_tail.push(TraceEvent::RoundEnd {
            round: 2,
            decided: 1,
            frozen: true,
        });
        assert_eq!(replay_hash_events(&prefix), replay_hash_events(&with_tail));
        let to_jsonl =
            |evs: &[TraceEvent]| evs.iter().map(|e| e.to_json() + "\n").collect::<String>();
        assert_eq!(
            replay_hash(&to_jsonl(&prefix)).expect("well-formed"),
            replay_hash(&to_jsonl(&with_tail)).expect("well-formed"),
        );
    }

    #[test]
    fn replay_rejects_malformed_lines() {
        assert!(replay_hash("{\"no_ev\":1}").is_err());
        assert!(replay_hash("{\"ev\":\"delivery\",\"round\":1}").is_err());
        assert!(replay_hash("{\"ev\":\"round_end\",\"round\":1,\"decided\":0}").is_err());
    }

    #[test]
    fn json_is_stable_and_single_line() {
        let ev = TraceEvent::Delivery {
            round: 3,
            index: 5,
            receiver: 12,
            claimed: 7,
        };
        let json = ev.to_json();
        assert_eq!(
            json,
            "{\"ev\":\"delivery\",\"round\":3,\"index\":5,\"receiver\":12,\"claimed\":7}"
        );
        assert!(!json.contains('\n'));
    }
}
