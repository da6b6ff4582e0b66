//! The memoization layer: an in-process map from stable point keys to
//! [`DseMetrics`], with optional persistence under `target/dse-cache`.
//!
//! The on-disk format is deliberately boring — one text line per record,
//! every float stored as its hex IEEE bit pattern so round-trips are
//! bit-identical (NaN payloads of infeasible points included) without a
//! serde dependency:
//!
//! ```text
//! lumos-dse-cache v1
//! <key:016x> <latency_bits:016x> <power_bits:016x> <epb_bits:016x> <feasible:0|1>
//! ```
//!
//! Unparseable lines are skipped (a torn append from a crashed run costs
//! one entry, not the cache); on duplicate keys the last line wins. The
//! cache can be cleared with [`MemoCache::clear`] or by deleting the
//! directory.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::point::DseMetrics;

const HEADER: &str = "lumos-dse-cache v1";
const FILE_NAME: &str = "points.v1.txt";

/// Environment variable overriding the persistent cache directory.
pub const CACHE_DIR_ENV: &str = "LUMOS_DSE_CACHE_DIR";

/// The default persistent cache directory (relative to the working
/// directory, which for `cargo run` is the workspace root).
pub const DEFAULT_CACHE_DIR: &str = "target/dse-cache";

/// Key → metrics memo with hit/miss accounting and optional disk
/// persistence.
///
/// # Examples
///
/// ```
/// use lumos_dse::{DseMetrics, MemoCache};
///
/// let mut cache = MemoCache::in_memory();
/// let m = DseMetrics { latency_ms: 1.0, power_w: 2.0, epb_nj: 3.0, feasible: true };
/// assert!(cache.get(42).is_none());
/// cache.insert(42, m);
/// assert_eq!(cache.get(42), Some(m));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug)]
pub struct MemoCache {
    map: HashMap<u64, DseMetrics>,
    hits: u64,
    misses: u64,
    loaded: usize,
    writer: Option<BufWriter<File>>,
    path: Option<PathBuf>,
}

impl MemoCache {
    /// A purely in-process cache (nothing touches the filesystem).
    pub fn in_memory() -> Self {
        MemoCache {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            loaded: 0,
            writer: None,
            path: None,
        }
    }

    /// The persistent cache directory: [`CACHE_DIR_ENV`] if set,
    /// otherwise [`DEFAULT_CACHE_DIR`].
    fn default_dir() -> PathBuf {
        std::env::var_os(CACHE_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(DEFAULT_CACHE_DIR))
    }

    /// Opens (creating if needed) the persistent cache in the default
    /// directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory or opening
    /// the cache file.
    pub fn persistent_default() -> io::Result<Self> {
        Self::persistent(Self::default_dir())
    }

    /// Opens (creating if needed) a persistent cache in `dir`, loading
    /// any previously stored points. New inserts are appended to the
    /// cache file as they happen.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory or opening
    /// the cache file.
    pub fn persistent(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(FILE_NAME);
        let mut cache = Self::in_memory();
        let existed = path.exists();
        if existed {
            cache.map = load_file(&path)?;
            cache.loaded = cache.map.len();
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut writer = BufWriter::new(file);
        if !existed {
            writeln!(writer, "{HEADER}")?;
        }
        cache.writer = Some(writer);
        cache.path = Some(path);
        Ok(cache)
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&mut self, key: u64) -> Option<DseMetrics> {
        match self.map.get(&key) {
            Some(m) => {
                self.hits += 1;
                Some(*m)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up `key` without touching the hit/miss counters.
    pub fn peek(&self, key: u64) -> Option<DseMetrics> {
        self.map.get(&key).copied()
    }

    /// Stores `key → metrics`, appending to the cache file when
    /// persistent. Filesystem errors on append are swallowed: the memo
    /// stays correct in-process and the next full run simply recomputes.
    pub fn insert(&mut self, key: u64, metrics: DseMetrics) {
        if let Some(w) = &mut self.writer {
            let _ = writeln!(w, "{}", encode_line(key, &metrics));
        }
        self.map.insert(key, metrics);
    }

    /// Number of memoized points.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups served from the memo since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Points restored from disk when the cache was opened.
    pub fn loaded_from_disk(&self) -> usize {
        self.loaded
    }

    /// The backing file, when persistent.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Flushes buffered appends to disk.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `flush` error.
    pub fn flush(&mut self) -> io::Result<()> {
        match &mut self.writer {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }

    /// Drops every memoized point and truncates the backing file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors recreating the cache file.
    pub fn clear(&mut self) -> io::Result<()> {
        self.map.clear();
        self.loaded = 0;
        if let Some(path) = &self.path {
            // Retire the old append writer *before* truncating: its
            // buffered lines flush into the doomed file instead of
            // resurrecting cleared entries after the truncate.
            self.writer = None;
            {
                let mut fresh = BufWriter::new(File::create(path)?);
                writeln!(fresh, "{HEADER}")?;
                fresh.flush()?;
            }
            let file = OpenOptions::new().append(true).open(path)?;
            self.writer = Some(BufWriter::new(file));
        }
        Ok(())
    }
}

impl Drop for MemoCache {
    fn drop(&mut self) {
        if let Some(w) = &mut self.writer {
            let _ = w.flush();
        }
    }
}

fn encode_line(key: u64, m: &DseMetrics) -> String {
    format!(
        "{:016x} {:016x} {:016x} {:016x} {}",
        key,
        m.latency_ms.to_bits(),
        m.power_w.to_bits(),
        m.epb_nj.to_bits(),
        m.feasible as u8
    )
}

fn decode_line(line: &str) -> Option<(u64, DseMetrics)> {
    let mut parts = line.split_ascii_whitespace();
    let key = u64::from_str_radix(parts.next()?, 16).ok()?;
    let latency = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
    let power = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
    let epb = f64::from_bits(u64::from_str_radix(parts.next()?, 16).ok()?);
    let feasible = match parts.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some((
        key,
        DseMetrics {
            latency_ms: latency,
            power_w: power,
            epb_nj: epb,
            feasible,
        },
    ))
}

fn load_file(path: &Path) -> io::Result<HashMap<u64, DseMetrics>> {
    let reader = BufReader::new(File::open(path)?);
    let mut map = HashMap::new();
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line == HEADER {
            continue;
        }
        if let Some((key, metrics)) = decode_line(line) {
            map.insert(key, metrics);
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lumos-dse-cache-test-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(latency: f64) -> DseMetrics {
        DseMetrics {
            latency_ms: latency,
            power_w: 30.5,
            epb_nj: 0.125,
            feasible: true,
        }
    }

    #[test]
    fn line_roundtrip_is_bit_exact() {
        for m in [sample(1.5), DseMetrics::infeasible()] {
            let (k, d) = decode_line(&encode_line(0xdead_beef, &m)).unwrap();
            assert_eq!(k, 0xdead_beef);
            assert!(d.bit_eq(&m));
        }
    }

    #[test]
    fn malformed_lines_skipped() {
        assert!(decode_line("not hex at all").is_none());
        assert!(decode_line("0 1 2 3 7").is_none());
        assert!(decode_line("0 1 2 3 1 extra").is_none());
        assert!(decode_line("").is_none());
    }

    #[test]
    fn persists_and_reloads() {
        let dir = temp_dir("reload");
        {
            let mut c = MemoCache::persistent(&dir).unwrap();
            assert_eq!(c.loaded_from_disk(), 0);
            c.insert(1, sample(1.0));
            c.insert(2, DseMetrics::infeasible());
        } // drop flushes
        let mut c = MemoCache::persistent(&dir).unwrap();
        assert_eq!(c.loaded_from_disk(), 2);
        assert!(c.get(1).unwrap().bit_eq(&sample(1.0)));
        assert!(c.get(2).unwrap().bit_eq(&DseMetrics::infeasible()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn last_write_wins_on_duplicate_keys() {
        let dir = temp_dir("dup");
        {
            let mut c = MemoCache::persistent(&dir).unwrap();
            c.insert(9, sample(1.0));
            c.insert(9, sample(2.0));
        }
        let c = MemoCache::persistent(&dir).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.peek(9).unwrap().bit_eq(&sample(2.0)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_truncates_backing_file() {
        let dir = temp_dir("clear");
        {
            let mut c = MemoCache::persistent(&dir).unwrap();
            c.insert(1, sample(1.0));
            c.clear().unwrap();
            c.insert(2, sample(2.0));
        }
        let c = MemoCache::persistent(&dir).unwrap();
        assert_eq!(c.loaded_from_disk(), 1);
        assert!(c.peek(1).is_none());
        assert!(c.peek(2).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_an_empty_cache_does_not_stack_headers() {
        let dir = temp_dir("headers");
        {
            let mut c = MemoCache::persistent(&dir).unwrap();
            c.insert(1, sample(1.0));
            c.clear().unwrap();
        }
        for _ in 0..3 {
            let c = MemoCache::persistent(&dir).unwrap();
            assert!(c.is_empty());
        }
        let text = fs::read_to_string(dir.join(FILE_NAME)).unwrap();
        assert_eq!(
            text.matches(HEADER).count(),
            1,
            "duplicate headers:\n{text}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_discards_buffered_unflushed_inserts() {
        // Regression: entries still sitting in the old BufWriter must not
        // flush through the stale append fd into the truncated file.
        let dir = temp_dir("clear-buffered");
        {
            let mut c = MemoCache::persistent(&dir).unwrap();
            for k in 0..5 {
                c.insert(k, sample(k as f64));
            }
            c.clear().unwrap();
        }
        let c = MemoCache::persistent(&dir).unwrap();
        assert_eq!(c.loaded_from_disk(), 0, "cleared entries resurrected");
        assert!(c.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = MemoCache::in_memory();
        assert!(c.is_empty());
        assert!(c.get(5).is_none());
        c.insert(5, sample(1.0));
        assert!(c.get(5).is_some());
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.len(), 1);
        assert!(c.path().is_none());
    }
}
