//! Snapshot epochs on disk and in memory: [`SnapshotStore`] (one mapped
//! `.ngds` file plus its plan cache), [`Epochs`] (which store is published,
//! which epoch files this daemon wrote), the epoch-file naming scheme with
//! its parser, and the daemon registry + startup GC
//! ([`gc_stale_epoch_files`]) that collect the files a killed daemon leaks.

use crate::addr::{probe, Probe, ServeAddr};
use ngd_graph::persist::{CompactionWriter, MmapSnapshot, PersistError};
use ngd_graph::{BatchUpdate, GraphView};
use ngd_match::PlanCache;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Epoch switches published (mirrors [`Epochs::compactions`]).
static EPOCH_SWITCHES: ngd_obs::LazyCounter = ngd_obs::LazyCounter::new("serve.epoch.switches");

/// The mapped snapshot a server (or one epoch of a server) holds, plus the
/// path it was mapped from.
#[derive(Debug)]
pub struct SnapshotStore {
    path: PathBuf,
    snapshot: MmapSnapshot,
    /// Compiled match plans of the server's Σ for this mapping, shared by
    /// every session on that Σ (a session that installs its own compiles
    /// into a cache of its own: one cache serves one (Σ, epoch)).  A
    /// compaction publishes a *new* store (hence a fresh, empty cache keyed
    /// to the new epoch) — stale plans can never leak across an epoch
    /// switch.
    plan_cache: PlanCache,
}

impl SnapshotStore {
    /// Map `path`.
    pub fn open(path: &Path) -> Result<SnapshotStore, PersistError> {
        let snapshot = MmapSnapshot::load(path)?;
        Ok(SnapshotStore {
            path: path.to_path_buf(),
            plan_cache: PlanCache::for_epoch(snapshot.epoch()),
            snapshot,
        })
    }

    /// The plan cache every session on this mapping and the server's Σ
    /// compiles into.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The file this store is mapped from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The epoch recorded in the mapped file's header.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        GraphView::node_count(&self.snapshot)
    }

    /// Edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        GraphView::edge_count(&self.snapshot)
    }

    /// The mapping sessions root their overlays on.
    pub(crate) fn snapshot(&self) -> &MmapSnapshot {
        &self.snapshot
    }
}

/// The file name of the `seq`-th epoch file a daemon writes for `epoch` of
/// the snapshot with this `stem`.  [`parse_epoch_file_name`] is its inverse
/// and the only thing GC trusts to pick files to unlink — keep the two
/// side by side.
fn epoch_file_name(stem: &str, epoch: u64, seq: u64) -> String {
    format!("{stem}.e{epoch}-{seq}.ngds")
}

/// `Some((epoch, seq))` iff `name` is exactly what [`epoch_file_name`]
/// writes for this `stem`: `<stem>.e<digits>-<digits>.ngds`.
fn parse_epoch_file_name(name: &str, stem: &str) -> Option<(u64, u64)> {
    let body = name
        .strip_prefix(stem)?
        .strip_prefix(".e")?
        .strip_suffix(".ngds")?;
    let (epoch, seq) = body.split_once('-')?;
    // `u64::from_str` alone would also accept a leading `+`.
    let number = |digits: &str| {
        (digits.bytes().all(|b| b.is_ascii_digit()))
            .then(|| digits.parse().ok())
            .flatten()
    };
    Some((number(epoch)?, number(seq)?))
}

/// The file stem epoch files of `snapshot_path` are named after.
fn snapshot_stem(snapshot_path: &Path) -> &str {
    snapshot_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("snapshot")
}

/// The daemon-wide epoch state: the published mapping and the epoch files
/// this daemon wrote.
pub(crate) struct Epochs {
    /// The currently published snapshot epoch.  Sessions clone the `Arc`
    /// at their next message boundary; superseded mappings stay alive —
    /// and mapped — exactly as long as a session still holds them.
    current: Mutex<Arc<SnapshotStore>>,
    /// The path the daemon was started on; compacted epochs are written
    /// next to it.
    snapshot_path: PathBuf,
    /// Epoch files this server created (unlinked on shutdown).
    owned_files: Mutex<Vec<PathBuf>>,
    /// Distinguishes epoch files when concurrent compactions race from the
    /// same base epoch — overwriting a path that is still mapped would be
    /// a SIGBUS hazard, so every compaction writes a fresh file.
    file_seq: AtomicU64,
    compactions: AtomicU64,
}

impl Epochs {
    /// Publish `store` as the daemon's first epoch.
    pub(crate) fn new(store: SnapshotStore) -> Epochs {
        Epochs {
            snapshot_path: store.path().to_path_buf(),
            current: Mutex::new(Arc::new(store)),
            owned_files: Mutex::new(Vec::new()),
            file_seq: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    pub(crate) fn published(&self) -> Arc<SnapshotStore> {
        Arc::clone(&self.current.lock().expect("current epoch lock"))
    }

    /// Compactions published since startup.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::SeqCst)
    }

    /// Fold `net` into `base`'s file as the next epoch and publish the new
    /// mapping — iff `base` is still the published epoch once the merge is
    /// done.  Compare-and-publish: the merge happens outside the lock, so
    /// another session may publish meanwhile.  Blindly overwriting would
    /// silently drop that compaction's folded updates from the published
    /// graph — instead the superseded attempt fails typed and its freshly
    /// written epoch file is unlinked, not orphaned.
    pub(crate) fn publish_compaction(
        &self,
        base: &Arc<SnapshotStore>,
        net: &BatchUpdate,
    ) -> Result<(), String> {
        let seq = self.file_seq.fetch_add(1, Ordering::SeqCst);
        let out_path = self.snapshot_path.with_file_name(epoch_file_name(
            snapshot_stem(&self.snapshot_path),
            base.epoch() + 1,
            seq,
        ));
        // A streaming merge of the mapped file with `net`, never a re-freeze.
        let bytes = CompactionWriter::new()
            .encode(base.snapshot(), net, base.epoch() + 1)
            .map_err(|e| e.to_string())?;
        std::fs::write(&out_path, &bytes)
            .map_err(|e| format!("write {}: {e}", out_path.display()))?;
        let new_store = Arc::new(SnapshotStore::open(&out_path).map_err(|e| e.to_string())?);
        {
            let mut current = self.current.lock().expect("current epoch lock");
            if !Arc::ptr_eq(&current, base) {
                let superseded_by = current.epoch();
                drop(current);
                drop(new_store);
                let _ = std::fs::remove_file(&out_path);
                return Err(format!(
                    "superseded by a concurrent compaction (epoch {superseded_by} was \
                     published during the merge); re-rooted sessions may retry"
                ));
            }
            *current = new_store;
        }
        self.owned_files.lock().expect("owned files").push(out_path);
        self.compactions.fetch_add(1, Ordering::SeqCst);
        EPOCH_SWITCHES.inc();
        Ok(())
    }

    /// Append `local` — the *resolved* listen address, ephemeral TCP ports
    /// included — to the daemon registry, so a later startup's GC can ping
    /// this daemon.  Best-effort: a read-only directory costs the GC
    /// safety net, not the server.
    pub(crate) fn register(&self, local: &ServeAddr) {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(daemon_registry_path(&self.snapshot_path))
        {
            let _ = writeln!(file, "{local}");
        }
    }

    /// Strip exactly one copy of `local`'s line, so the registry only ever
    /// names daemons that died *un*gracefully.
    pub(crate) fn deregister(&self, local: &ServeAddr) {
        let registry = daemon_registry_path(&self.snapshot_path);
        let Ok(text) = std::fs::read_to_string(&registry) else {
            return;
        };
        let own_line = local.to_string();
        let mut remaining: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        if let Some(own) = remaining.iter().position(|line| *line == own_line) {
            remaining.remove(own);
        }
        if remaining.is_empty() {
            let _ = std::fs::remove_file(&registry);
        } else {
            let _ = std::fs::write(&registry, remaining.join("\n") + "\n");
        }
    }

    /// Unlink the epoch files this daemon created.  They are scratch
    /// state: call once every session has drained, when the mappings are
    /// gone (the operator's original snapshot is never touched).
    pub(crate) fn unlink_owned_files(&self) {
        let Ok(mut owned) = self.owned_files.lock() else {
            return;
        };
        for path in owned.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The daemon registry kept next to `snapshot_path`: one listen address
/// per line (`unix:…` / `tcp:…`), appended on startup, stripped on
/// graceful shutdown.
fn daemon_registry_path(snapshot_path: &Path) -> PathBuf {
    let name = snapshot_path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    snapshot_path.with_file_name(format!("{name}.daemons"))
}

/// Unlink epoch files leaked next to `snapshot_path` by crashed daemons.
///
/// Reads the sibling registry, pings every recorded address, and prunes
/// the lines that no longer answer.  Only when **no** registered daemon
/// answers are the epoch-file siblings unlinked (and the registry removed
/// with them): the registry does not say which daemon wrote which file, so
/// while any answers every epoch file is presumed owned.  Unparseable
/// lines and undecisive pings are kept and treated as alive — deleting
/// mapped files on a guess would SIGBUS a reader.  Best-effort and racy by
/// design (two daemons starting at once may both rewrite the registry);
/// the appends on startup re-establish every live daemon's line.
pub(crate) fn gc_stale_epoch_files(snapshot_path: &Path) {
    let registry = daemon_registry_path(snapshot_path);
    let Ok(text) = std::fs::read_to_string(&registry) else {
        return;
    };
    let recorded: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .collect();
    let live: Vec<&str> = recorded
        .iter()
        .copied()
        .filter(|line| match ServeAddr::parse(line) {
            Ok(addr) => !matches!(probe(&addr), Probe::Refused),
            Err(_) => true,
        })
        .collect();
    if live.is_empty() {
        let stem = snapshot_stem(snapshot_path);
        let dir = match snapshot_path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name
                    .to_str()
                    .is_some_and(|n| parse_epoch_file_name(n, stem).is_some())
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let _ = std::fs::remove_file(&registry);
    } else if live.len() < recorded.len() {
        let _ = std::fs::write(&registry, live.join("\n") + "\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_file_name_matcher_is_exact() {
        let is_epoch_file_name = |name, stem| parse_epoch_file_name(name, stem).is_some();
        assert!(is_epoch_file_name("snap.e1-0.ngds", "snap"));
        assert!(is_epoch_file_name("snap.e12-345.ngds", "snap"));
        // Wrong stem, missing sequence, non-digits, wrong extension.
        assert!(!is_epoch_file_name("other.e1-0.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e1.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e1-.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e-0.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.ea-b.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e+1-0.ngds", "snap"));
        assert!(!is_epoch_file_name("snap.e1-0.ngds.bak", "snap"));
        assert!(!is_epoch_file_name("snap.ngds", "snap"));
    }

    #[test]
    fn epoch_file_names_round_trip_through_the_parser() {
        // The last stem itself looks like an epoch suffix: the parser must
        // strip the whole stem, not stop at the first `.e`.
        for stem in ["snap", "graph.v2", "snap.e1-2"] {
            for (epoch, seq) in [(1, 0), (12, 345), (u64::MAX, u64::MAX)] {
                let name = epoch_file_name(stem, epoch, seq);
                assert_eq!(
                    parse_epoch_file_name(&name, stem),
                    Some((epoch, seq)),
                    "{name}"
                );
            }
        }
        // Such a snapshot is not its own epoch file.
        assert_eq!(parse_epoch_file_name("snap.e1-2.ngds", "snap.e1-2"), None);
    }

    #[test]
    fn registry_sits_next_to_the_snapshot() {
        assert_eq!(
            daemon_registry_path(Path::new("/var/ngd/snap.ngds")),
            PathBuf::from("/var/ngd/snap.ngds.daemons")
        );
        assert_eq!(
            daemon_registry_path(Path::new("snap.ngds")),
            PathBuf::from("snap.ngds.daemons")
        );
    }
}
