//! The line-delimited JSON wire protocol.
//!
//! Every request and every event is one JSON object on one line
//! (`\n`-terminated, no newlines inside — `tcsim_trace::json::JsonWriter`
//! never emits any). A connection carries any number of requests; the
//! server streams events back as they happen, tagged with the client's
//! job `id`, so responses interleave freely with later submissions.
//!
//! # Requests
//!
//! ```text
//! {"type":"submit","id":"j1","job":{...}}          // one job
//! {"type":"batch","jobs":[{"id":"j1","job":{...}},...]}
//! {"type":"stats"}                                  // server counters
//! {"type":"shutdown"}                               // stop the server
//! ```
//!
//! # Events
//!
//! ```text
//! {"type":"accepted","id":"j1","key":"<32hex>","coalesced":false}
//! {"type":"rejected","id":"j1","reason":"queue-full"}
//! {"type":"running","id":"j1"}
//! {"type":"done","id":"j1","key":"...","cached":true,
//!  "output_fnv":"...","latency_us":123,"stats":{...}}
//! {"type":"failed","id":"j1","reason":"..."}
//! {"type":"stats","jobs_done":1,...}
//! ```
//!
//! `done.stats` is the job's `LaunchStats` JSON **verbatim** — cached
//! and freshly computed completions are byte-identical by contract.

use crate::job::JobSpec;
use tcsim_trace::json::{self, JsonValue, JsonWriter};

/// A client → server request.
#[derive(Debug)]
pub enum Request {
    /// Submit one job under a client-chosen id.
    Submit {
        /// Client-chosen job id (echoed on every event).
        id: String,
        /// The job.
        job: JobSpec,
    },
    /// Submit several jobs in one line.
    Batch {
        /// `(id, job)` pairs, processed in order.
        jobs: Vec<(String, JobSpec)>,
    },
    /// Ask for the server counters.
    Stats,
    /// Stop the server (graceful: the current batch finishes).
    Shutdown,
}

impl Request {
    /// Serializes the request as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut w = JsonWriter::object();
        match self {
            Request::Submit { id, job } => {
                w.field_str("type", "submit");
                w.field_str("id", id);
                job.write_json(w.key("job"));
            }
            Request::Batch { jobs } => {
                w.field_str("type", "batch");
                w.key("jobs").begin_array();
                for (id, job) in jobs {
                    w.begin_object();
                    w.field_str("id", id);
                    job.write_json(w.key("job"));
                    w.end_object();
                }
                w.end_array();
            }
            Request::Stats => w.field_str("type", "stats"),
            Request::Shutdown => w.field_str("type", "shutdown"),
        }
        w.finish()
    }

    /// Parses one protocol line.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let ty = v
            .str_field("type")
            .ok_or("request: missing string `type`")?;
        match ty {
            "submit" => {
                let id = request_id(&v)?;
                let job = v.get("job").ok_or("submit: missing `job`")?;
                let job = JobSpec::from_json(job)?;
                Ok(Request::Submit { id, job })
            }
            "batch" => {
                let items = v
                    .get("jobs")
                    .and_then(|j| j.as_array())
                    .ok_or("batch: missing array `jobs`")?;
                let mut jobs = Vec::with_capacity(items.len());
                for item in items {
                    let id = request_id(item)?;
                    let job = item.get("job").ok_or("batch: entry missing `job`")?;
                    jobs.push((id, JobSpec::from_json(job)?));
                }
                Ok(Request::Batch { jobs })
            }
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

fn request_id(v: &JsonValue) -> Result<String, String> {
    let id = v.str_field("id").ok_or("request: missing string `id`")?;
    if id.is_empty() || id.len() > 128 {
        return Err("request: `id` must be 1..=128 characters".into());
    }
    Ok(id.to_string())
}

/// Aggregate server counters (the `stats` event payload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs completed (cached or computed).
    pub jobs_done: u64,
    /// Completions served from the cache.
    pub cache_hits: u64,
    /// Jobs that had to be computed.
    pub cache_misses: u64,
    /// Submissions attached to an identical in-flight job.
    pub coalesced: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Jobs that failed validation or launch.
    pub failed: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Distinct jobs currently queued or running.
    pub in_flight: u64,
    /// Entries resident in the result cache.
    pub cache_entries: u64,
}

/// A server → client event.
#[derive(Debug, PartialEq)]
pub enum Event {
    /// The job was admitted (queued, or attached to an in-flight twin).
    Accepted {
        /// Echoed job id.
        id: String,
        /// The job's cache key.
        key: String,
        /// Whether it was coalesced onto an identical in-flight job.
        coalesced: bool,
    },
    /// The job was refused by admission control or failed to validate.
    Rejected {
        /// Echoed job id.
        id: String,
        /// `queue-full`, `quota-exceeded`, or a validation message.
        reason: String,
    },
    /// The job's batch started executing.
    Running {
        /// Echoed job id.
        id: String,
    },
    /// The job completed.
    Done {
        /// Echoed job id.
        id: String,
        /// The job's cache key.
        key: String,
        /// Served from the cache (no simulation ran).
        cached: bool,
        /// FNV-1a/128 digest of the output buffer.
        output_fnv: String,
        /// Server-side latency from admission to completion, in µs.
        latency_us: u64,
        /// The launch's `LaunchStats` JSON, verbatim.
        stats_json: String,
    },
    /// The job ran but the launch failed (verifier/launch error).
    Failed {
        /// Echoed job id.
        id: String,
        /// The launch error text.
        reason: String,
    },
    /// Server counters, in response to a `stats` request.
    Stats(ServerStats),
}

impl Event {
    /// Serializes the event as one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut w = JsonWriter::object();
        match self {
            Event::Accepted { id, key, coalesced } => {
                w.field_str("type", "accepted");
                w.field_str("id", id);
                w.field_str("key", key);
                w.key("coalesced").bool(*coalesced);
            }
            Event::Rejected { id, reason } => {
                w.field_str("type", "rejected");
                w.field_str("id", id);
                w.field_str("reason", reason);
            }
            Event::Running { id } => {
                w.field_str("type", "running");
                w.field_str("id", id);
            }
            Event::Done {
                id,
                key,
                cached,
                output_fnv,
                latency_us,
                stats_json,
            } => {
                w.field_str("type", "done");
                w.field_str("id", id);
                w.field_str("key", key);
                w.key("cached").bool(*cached);
                w.field_str("output_fnv", output_fnv);
                w.field_u64("latency_us", *latency_us);
                w.raw_field("stats", stats_json);
            }
            Event::Failed { id, reason } => {
                w.field_str("type", "failed");
                w.field_str("id", id);
                w.field_str("reason", reason);
            }
            Event::Stats(s) => {
                w.field_str("type", "stats");
                w.field_u64("jobs_done", s.jobs_done);
                w.field_u64("cache_hits", s.cache_hits);
                w.field_u64("cache_misses", s.cache_misses);
                w.field_u64("coalesced", s.coalesced);
                w.field_u64("rejected", s.rejected);
                w.field_u64("failed", s.failed);
                w.field_u64("queue_depth", s.queue_depth);
                w.field_u64("in_flight", s.in_flight);
                w.field_u64("cache_entries", s.cache_entries);
            }
        }
        w.finish()
    }

    /// Parses one protocol line.
    pub fn from_line(line: &str) -> Result<Event, String> {
        let v = json::parse(line).map_err(|e| format!("bad event JSON: {e}"))?;
        let ty = v.str_field("type").ok_or("event: missing string `type`")?;
        let id = || -> Result<String, String> {
            Ok(v.str_field("id").ok_or("event: missing `id`")?.to_string())
        };
        let s = |key: &str| -> Result<String, String> {
            Ok(v.str_field(key)
                .ok_or_else(|| format!("event: missing `{key}`"))?
                .to_string())
        };
        match ty {
            "accepted" => Ok(Event::Accepted {
                id: id()?,
                key: s("key")?,
                coalesced: v
                    .get("coalesced")
                    .and_then(|b| b.as_bool())
                    .ok_or("accepted: missing `coalesced`")?,
            }),
            "rejected" => Ok(Event::Rejected {
                id: id()?,
                reason: s("reason")?,
            }),
            "running" => Ok(Event::Running { id: id()? }),
            "done" => Ok(Event::Done {
                id: id()?,
                key: s("key")?,
                cached: v
                    .get("cached")
                    .and_then(|b| b.as_bool())
                    .ok_or("done: missing `cached`")?,
                output_fnv: s("output_fnv")?,
                latency_us: v
                    .u64_field("latency_us")
                    .ok_or("done: missing `latency_us`")?,
                // Re-serializing the parsed tree reproduces the wire bytes
                // exactly (keys in order, numbers verbatim), so `stats_json`
                // round-trips byte-identically through the protocol.
                stats_json: v.get("stats").ok_or("done: missing `stats`")?.to_json(),
            }),
            "failed" => Ok(Event::Failed {
                id: id()?,
                reason: s("reason")?,
            }),
            "stats" => {
                let u = |key: &str| -> Result<u64, String> {
                    v.u64_field(key)
                        .ok_or_else(|| format!("stats: missing `{key}`"))
                };
                Ok(Event::Stats(ServerStats {
                    jobs_done: u("jobs_done")?,
                    cache_hits: u("cache_hits")?,
                    cache_misses: u("cache_misses")?,
                    coalesced: u("coalesced")?,
                    rejected: u("rejected")?,
                    failed: u("failed")?,
                    queue_depth: u("queue_depth")?,
                    in_flight: u("in_flight")?,
                    cache_entries: u("cache_entries")?,
                }))
            }
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for line in [r#"{"type":"stats"}"#, r#"{"type":"shutdown"}"#] {
            let req = Request::from_line(line).expect("parse");
            assert_eq!(req.to_line(), line);
        }
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Accepted {
                id: "j1".into(),
                key: "a".repeat(32),
                coalesced: true,
            },
            Event::Rejected {
                id: "j2".into(),
                reason: "queue-full".into(),
            },
            Event::Running { id: "j3".into() },
            Event::Done {
                id: "j4".into(),
                key: "b".repeat(32),
                cached: false,
                output_fnv: "c".repeat(32),
                latency_us: 12345,
                stats_json: r#"{"cycles":99,"ipc":0.500000,"trace":null}"#.into(),
            },
            Event::Failed {
                id: "j5".into(),
                reason: "boom\nline2".into(),
            },
            Event::Stats(ServerStats {
                jobs_done: 7,
                cache_hits: 3,
                ..Default::default()
            }),
        ];
        for ev in events {
            let line = ev.to_line();
            assert!(!line.contains('\n'), "events must be single lines: {line}");
            json::validate_json(&line).expect("event line must be valid JSON");
            let back = Event::from_line(&line).expect("parse");
            assert_eq!(back, ev);
            // Re-encoding the parsed event reproduces the wire bytes.
            assert_eq!(back.to_line(), line);
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "garbage",
            r#"{"type":"nope"}"#,
            r#"{"type":"submit"}"#,
            r#"{"type":"submit","id":"","job":{}}"#,
            r#"{"type":"batch","jobs":[{"id":"x"}]}"#,
        ] {
            assert!(Request::from_line(bad).is_err(), "accepted {bad:?}");
        }
    }
}
