//! The content-addressed result cache: an in-memory map backed by an
//! optional on-disk directory, so a restarted server keeps serving hits.
//!
//! # On-disk format
//!
//! One file per key, `<key>.tcres`, written atomically (temp file +
//! rename):
//!
//! ```text
//! tcsim-serve result v1
//! key: 6c62272e07bb014262b821756295c58d
//! output-fnv: d228cb696f1a8caf78912b704e4a8964
//! {"cycles":123,...}
//! ```
//!
//! The stats line is the launch's [`LaunchStats::to_json`] output
//! **verbatim** — a cache hit streams exactly the bytes a cold run would
//! have produced, which is what the end-to-end determinism gate pins.
//! Files that fail any structural check (bad magic, key/filename
//! mismatch, stats that do not parse as JSON) are skipped on load, never
//! trusted.
//!
//! [`LaunchStats::to_json`]: tcsim_sim::LaunchStats::to_json

use crate::job::JobOutcome;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &str = "tcsim-serve result v1";

/// One cached job result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// The job's content hash.
    pub key: String,
    /// The executed outcome (stats JSON + output digest).
    pub outcome: JobOutcome,
}

fn entry_to_text(e: &CacheEntry) -> String {
    format!(
        "{MAGIC}\nkey: {}\noutput-fnv: {}\n{}\n",
        e.key, e.outcome.output_fnv, e.outcome.stats_json
    )
}

fn entry_from_text(text: &str) -> Result<CacheEntry, String> {
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err(format!("missing `{MAGIC}` magic"));
    }
    let key = lines
        .next()
        .and_then(|l| l.strip_prefix("key: "))
        .ok_or("missing `key:` line")?
        .to_string();
    let output_fnv = lines
        .next()
        .and_then(|l| l.strip_prefix("output-fnv: "))
        .ok_or("missing `output-fnv:` line")?
        .to_string();
    let stats_json = lines.next().ok_or("missing stats line")?.to_string();
    if lines.next().is_some() {
        return Err("trailing data after stats line".into());
    }
    if key.len() != 32 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("malformed key {key:?}"));
    }
    tcsim_trace::json::validate_json(&stats_json)
        .map_err(|e| format!("stats do not parse: {e}"))?;
    Ok(CacheEntry {
        key,
        outcome: JobOutcome {
            stats_json,
            output_fnv,
        },
    })
}

/// The server's result cache.
pub struct ResultCache {
    dir: Option<PathBuf>,
    mem: HashMap<String, Arc<CacheEntry>>,
    /// Entries loaded from disk at open time (restart warm-start count).
    loaded: usize,
}

impl ResultCache {
    /// An in-memory-only cache (no persistence).
    pub fn in_memory() -> ResultCache {
        ResultCache {
            dir: None,
            mem: HashMap::new(),
            loaded: 0,
        }
    }

    /// Opens (and creates) the persistent cache at `dir`, loading every
    /// valid `*.tcres` entry. Corrupt or mismatched files are ignored.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        let mut mem = HashMap::new();
        let mut names: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "tcres"))
            .collect();
        names.sort();
        for path in names {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            let Ok(entry) = entry_from_text(&text) else {
                continue;
            };
            // The filename is the key: a renamed file must not alias
            // another job's result.
            if path.file_stem().and_then(|s| s.to_str()) != Some(entry.key.as_str()) {
                continue;
            }
            mem.insert(entry.key.clone(), Arc::new(entry));
        }
        let loaded = mem.len();
        Ok(ResultCache {
            dir: Some(dir.to_path_buf()),
            mem,
            loaded,
        })
    }

    /// Number of entries resident in memory.
    pub fn len(&self) -> usize {
        self.mem.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.mem.is_empty()
    }

    /// Entries that were warm-loaded from disk when the cache opened.
    pub fn loaded_from_disk(&self) -> usize {
        self.loaded
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<Arc<CacheEntry>> {
        self.mem.get(key).cloned()
    }

    /// Inserts an entry, persisting it to disk when a directory is
    /// configured. Disk failures are returned but the in-memory insert
    /// always succeeds first (a full disk degrades to a warm cache, not
    /// a broken server).
    pub fn insert(&mut self, entry: CacheEntry) -> io::Result<Arc<CacheEntry>> {
        let entry = Arc::new(entry);
        self.mem.insert(entry.key.clone(), entry.clone());
        if let Some(dir) = &self.dir {
            let tmp = dir.join(format!("{}.tmp", entry.key));
            let path = dir.join(format!("{}.tcres", entry.key));
            fs::write(&tmp, entry_to_text(&entry))?;
            fs::rename(&tmp, &path)?;
        }
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key_fill: char) -> CacheEntry {
        CacheEntry {
            key: key_fill.to_string().repeat(32),
            outcome: JobOutcome {
                stats_json: r#"{"cycles":42,"instructions":7}"#.into(),
                output_fnv: "0".repeat(32),
            },
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tcsim-serve-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn text_format_round_trips() {
        let e = entry('a');
        let back = entry_from_text(&entry_to_text(&e)).expect("parse");
        assert_eq!(back, e);
    }

    #[test]
    fn corrupt_entries_are_rejected() {
        assert!(entry_from_text("nope").is_err());
        let e = entry('b');
        let good = entry_to_text(&e);
        // Truncated stats line.
        assert!(entry_from_text(good.rsplit_once('{').unwrap().0).is_err());
        // Stats that are not JSON.
        let bad = good.replace(&e.outcome.stats_json, "not json");
        assert!(entry_from_text(&bad).is_err());
        // Key that is not 32 hex chars.
        let bad = good.replace(&e.key, "short");
        assert!(entry_from_text(&bad).is_err());
    }

    #[test]
    fn persists_and_reloads() {
        let dir = tmp_dir("reload");
        {
            let mut c = ResultCache::open(&dir).expect("open");
            assert_eq!(c.loaded_from_disk(), 0);
            c.insert(entry('a')).expect("insert");
            c.insert(entry('b')).expect("insert");
            assert_eq!(c.len(), 2);
        }
        let c = ResultCache::open(&dir).expect("reopen");
        assert_eq!(c.loaded_from_disk(), 2);
        assert_eq!(
            c.get(&"a".repeat(32)).expect("hit").outcome.stats_json,
            r#"{"cycles":42,"instructions":7}"#
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_skips_corrupt_and_renamed_files() {
        let dir = tmp_dir("skip");
        let mut c = ResultCache::open(&dir).expect("open");
        c.insert(entry('a')).expect("insert");
        // A corrupt file and a valid entry under the wrong filename.
        fs::write(dir.join(format!("{}.tcres", "c".repeat(32))), "garbage").unwrap();
        fs::write(
            dir.join(format!("{}.tcres", "d".repeat(32))),
            entry_to_text(&entry('b')),
        )
        .unwrap();
        let c = ResultCache::open(&dir).expect("reopen");
        assert_eq!(c.loaded_from_disk(), 1, "only the honest entry survives");
        assert!(c.get(&"b".repeat(32)).is_none());
        assert!(c.get(&"d".repeat(32)).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_cache_works_without_a_directory() {
        let mut c = ResultCache::in_memory();
        assert!(c.is_empty());
        c.insert(entry('a')).expect("insert");
        assert!(c.get(&"a".repeat(32)).is_some());
        assert!(c.get(&"b".repeat(32)).is_none());
    }
}
