//! The durable-ingest workload: one author servent writing through a
//! `DurableRepository`, with no network.
//!
//! Ops: create + extract + durable publish (an explicit `sync` every
//! 64th publish), searches of the durable repository, and removes of
//! earlier publishes. Maintenance runs between ops and is timed apart
//! from them: `compact` every few thousand WAL records and a restart (drop +
//! `DurableRepository::open`) every 4k ops, after which the live object
//! count and a fixed probe set of searches must answer as before.

use rand::rngs::StdRng;
use rand::Rng;
use std::path::{Path, PathBuf};
use up2p_core::{CoreError, Servent};
use up2p_net::PeerId;
use up2p_sim::rng_for;
use up2p_store::{
    token_passes, DurableOptions, DurableRepository, Query, Repository, ResourceId, SyncPolicy,
};

use crate::report::Recorder;
use crate::trace::Tracer;
use crate::tracks::{self, Corpus, Lds, QueryMix};

/// Shape of the durable workload.
#[derive(Debug, Clone, Copy)]
pub struct DurSpec {
    /// Publishes per explicit `sync`.
    pub sync_every: u64,
    /// WAL records that trigger a `compact`.
    pub compact_records: usize,
    /// Ops between restarts.
    pub restart_every: u64,
}

/// Share of ops that publish.
pub const PUBLISH_SHARE: f64 = 0.80;
/// Share of ops that search; the rest remove.
pub const SEARCH_SHARE: f64 = 0.15;

const OPTIONS: DurableOptions = DurableOptions {
    sync: SyncPolicy::Manual,
    compact_every: None,
};

/// A durable store under a directory of its own, with its author.
pub struct DurWorld {
    spec: DurSpec,
    dir: PathBuf,
    /// `None` only while a restart has the directory closed.
    store: Option<DurableRepository>,
    author: Servent,
    community: String,
    paths: Vec<String>,
    live: Vec<ResourceId>,
    probes: Vec<Query>,
    rng: StdRng,
    ops: Lds,
    mix: QueryMix,
    next_serial: usize,
    unsynced: u64,
    steps: u64,
}

fn publish(
    tr: &mut Tracer,
    store: &mut DurableRepository,
    author: &Servent,
    community: &str,
    paths: &[String],
    values: &[(&str, &str)],
    sync: bool,
) -> Result<ResourceId, CoreError> {
    let object = tracks::create(tr, author, community, values)?;
    let fields = tr.span("store.extract", || {
        Repository::extract_fields(&object.doc, paths)
    });
    let id = tr.span("store.publish", || {
        store.publish_fields(community, object.doc, fields)
    })?;
    if sync {
        tr.span("store.sync", || store.sync())?;
    }
    Ok(id)
}

impl DurWorld {
    /// Builds a store of `corpus.base()` objects in `dir` (emptied
    /// first) through the same create → extract → publish path as the
    /// ops, as one bulk load: a single sync at the end, then a compaction
    /// into a segment. Per-publish fsync cost is the ops' to measure.
    pub fn build(
        spec: DurSpec,
        corpus: &Corpus,
        seed: u64,
        dir: &Path,
    ) -> Result<DurWorld, CoreError> {
        let _ = std::fs::remove_dir_all(dir);
        let mut store = DurableRepository::open(dir, OPTIONS)?;
        let community = tracks::community("Gnutella");
        let mut author = Servent::new(PeerId(0));
        author.join(community.clone());
        let paths = community.indexed_paths();
        let mut tr = Tracer::new(|| 0);
        let mut live = Vec::with_capacity(corpus.base());
        for serial in 0..corpus.base() {
            let id = corpus.with_values(serial, |v| {
                publish(
                    &mut tr,
                    &mut store,
                    &author,
                    &community.id,
                    &paths,
                    v,
                    false,
                )
            })?;
            live.push(id);
        }
        store.sync()?;
        store.compact()?;
        let mut probe_mix = QueryMix::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut rng = rng_for(seed, "servbench-ops");
        Ok(DurWorld {
            spec,
            dir: dir.to_path_buf(),
            store: Some(store),
            author,
            community: community.id,
            paths,
            live,
            probes: (0..20).map(|_| probe_mix.next_query()).collect(),
            ops: Lds::new(&mut rng, Lds::SILVER),
            rng,
            mix: QueryMix::new(seed),
            next_serial: corpus.base(),
            unsynced: 0,
            steps: 0,
        })
    }

    /// One op of the seeded sequence, then any maintenance it triggers.
    pub fn step(&mut self, corpus: &Corpus, tr: &mut Tracer, rec: &mut Recorder) {
        let Some(store) = self.store.as_mut() else {
            return rec.fail(1, &"the store did not reopen");
        };
        if store.wal_records() >= self.spec.compact_records {
            let (res, ns) = tr.op("maint.compact", |tr| {
                tr.span("store.compact", || store.compact())
            });
            match res {
                Ok(()) => rec.sample("compact", ns, 0),
                Err(e) => rec.check(false, || format!("compact failed: {e}")),
            }
        }
        let r = self.ops.next_point();
        if r < PUBLISH_SHARE || self.live.is_empty() {
            self.publish(corpus, tr, rec);
        } else if r < PUBLISH_SHARE + SEARCH_SHARE {
            self.search(tr, rec);
        } else {
            self.remove(tr, rec);
        }
        self.steps += 1;
        if self.steps.is_multiple_of(self.spec.restart_every) {
            self.restart(tr, rec);
        }
    }

    fn repo(&self) -> Option<&Repository> {
        self.store.as_ref().map(DurableRepository::repository)
    }

    /// Index bytes of the durable repository.
    pub fn index_bytes(&self) -> f64 {
        self.repo()
            .map_or(0.0, |r| r.index_stats().approx_bytes as f64)
    }

    fn publish(&mut self, corpus: &Corpus, tr: &mut Tracer, rec: &mut Recorder) {
        let serial = self.next_serial;
        self.next_serial += 1;
        self.unsynced += 1;
        let sync = self.unsynced == self.spec.sync_every;
        if sync {
            self.unsynced = 0;
        }
        let passes = token_passes();
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let (author, community, paths) = (&self.author, &self.community, &self.paths);
        let (res, ns) = corpus.with_values(serial, |v| {
            tr.op("op.publish", |tr| {
                publish(tr, store, author, community, paths, v, sync)
            })
        });
        match res {
            Ok(id) => {
                rec.sample("publish", ns, 1);
                rec.count("publishes", 1.0);
                rec.count("publish_token_passes", (token_passes() - passes) as f64);
                if sync {
                    rec.count("syncs", 1.0);
                }
                self.live.push(id);
            }
            Err(e) => rec.fail(1, &e),
        }
    }

    fn search(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        let query = self.mix.next_query();
        let Some(repo) = self.store.as_ref().map(DurableRepository::repository) else {
            return;
        };
        let community = &self.community;
        let (hits, ns) = tr.op("op.search", |tr| {
            tr.span("store.search", || repo.search(Some(community), &query))
        });
        rec.sample("search", ns, 1);
        rec.count("searches", 1.0);
        rec.count("store_hits", hits.len() as f64);
        if !hits.is_empty() {
            rec.count("searches_with_hits", 1.0);
        }
        for hit in &hits {
            rec.check(
                hit.community == *community && query.matches_fields(&hit.fields),
                || format!("stored object {} does not satisfy {query:?}", hit.id),
            );
        }
    }

    fn remove(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        let k = self.rng.gen_range(0..self.live.len());
        let id = self.live.swap_remove(k);
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let (res, ns) = tr.op("op.remove", |tr| {
            tr.span("store.remove", || store.remove(&id))
        });
        match res {
            Ok(removed) => {
                rec.sample("remove", ns, 1);
                rec.check(removed.is_some_and(|o| o.id == id), || {
                    format!("remove of {id} found nothing")
                });
            }
            Err(e) => rec.fail(1, &e),
        }
    }

    /// Probe answers: each probe's sorted result ids.
    fn probe(&self) -> Vec<Vec<ResourceId>> {
        let Some(repo) = self.repo() else {
            return Vec::new();
        };
        self.probes
            .iter()
            .map(|q| {
                let mut ids: Vec<ResourceId> = repo
                    .search(Some(&self.community), q)
                    .into_iter()
                    .map(|o| o.id.clone())
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect()
    }

    /// Clean shutdown (sync, drop) and reopen from the live directory.
    fn restart(&mut self, tr: &mut Tracer, rec: &mut Recorder) {
        let Some(mut store) = self.store.take() else {
            return;
        };
        if let Err(e) = store.sync() {
            return rec.check(false, || format!("sync before restart failed: {e}"));
        }
        self.unsynced = 0;
        let objects = store.repository().len();
        let wal_records = store.wal_records();
        self.store = Some(store);
        let answers = self.probe();
        rec.count("restart_disk_bytes", file_sizes(&self.dir, |_| true) as f64);
        rec.count("restart_objects", objects as f64);
        rec.count(
            "restart_wal_bytes",
            file_sizes(&self.dir, |n| n.starts_with("wal-")) as f64,
        );
        rec.count("restart_wal_records", wal_records as f64);
        drop(self.store.take());
        let passes = token_passes();
        let dir = &self.dir;
        let (res, ns) = tr.op("maint.restart", |tr| {
            tr.span("store.recover", || DurableRepository::open(dir, OPTIONS))
        });
        let passes = token_passes() - passes;
        match res {
            Ok(store) => self.store = Some(store),
            Err(e) => return rec.check(false, || format!("reopen failed: {e}")),
        }
        rec.sample("restart", ns, 0);
        rec.count("restarts", 1.0);
        rec.count("restart_token_passes", passes as f64);
        rec.check(self.repo().map(Repository::len) == Some(objects), || {
            format!("restart changed the object count from {objects}")
        });
        rec.check(self.probe() == answers, || {
            "restart changed a probe search's answer".to_string()
        });
    }
}

impl Drop for DurWorld {
    fn drop(&mut self) {
        drop(self.store.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Summed size of the regular files directly under `dir` whose name
/// passes `keep`.
fn file_sizes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
