//! The network workloads: one servent per peer over a substrate built by
//! `build_network_with`, all sharing one payload plane.
//!
//! A single op is a search from a random live servent or a create +
//! publish; after every 4th search with hits the searcher downloads a
//! random hit and renders it. The batch variant serves 64-query
//! `search_batch` calls with single searches and publishes between them.

use rand::rngs::StdRng;
use rand::Rng;
use up2p_core::{CoreError, PayloadPlane, Servent, SharedObject};
use up2p_net::{
    build_network_with, DigestConfig, MsgKind, NetConfig, PeerId, PeerNetwork, ProtocolKind,
    SearchHit, SearchOutcome, SearchRequest,
};
use up2p_sim::rng_for;
use up2p_store::{Query, Repository, ResourceId};

use crate::report::Recorder;
use crate::trace::Tracer;
use crate::tracks::{self, Corpus, Lds, QueryMix};

/// Steps between two churn flaps (one peer back up, one down).
const CHURN_EVERY: u64 = 20;

/// Batch serving between single ops (the FastTrack workload).
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// Queries per `search_batch` call.
    pub size: usize,
    /// Serving threads per call.
    pub workers: usize,
    /// Single `Servent::search` ops after each batch.
    pub singles: usize,
    /// Servent publishes after each batch.
    pub publishes: usize,
}

/// Shape of one network workload.
#[derive(Debug, Clone, Copy)]
pub struct NetSpec {
    /// Substrate.
    pub kind: ProtocolKind,
    /// Peers, each running one servent.
    pub peers: usize,
    /// Super-peers (FastTrack); `None` keeps the substrate's default.
    pub supers: Option<usize>,
    /// Routing digests on (guided search).
    pub guided: bool,
    /// Share of single ops that create + publish a fresh track.
    pub publish_share: f64,
    /// Share of peers kept offline by the churn schedule.
    pub offline_share: f64,
    /// Batch serving, when the workload is batched.
    pub batch: Option<BatchSpec>,
}

/// Message counters read around one search.
struct Counters {
    digest: u64,
    query: u64,
    queryhit: u64,
}

impl Counters {
    fn read(net: &dyn PeerNetwork) -> Counters {
        Counters {
            digest: net.digest_messages(),
            query: net.stats().count(MsgKind::Query),
            queryhit: net.stats().count(MsgKind::QueryHit),
        }
    }
}

/// A built network world, ready to serve.
pub struct NetWorld {
    spec: NetSpec,
    net: Box<dyn PeerNetwork + Send>,
    plane: PayloadPlane,
    servents: Vec<Servent>,
    community: String,
    paths: Vec<String>,
    offline: Vec<u32>,
    rng: StdRng,
    ops: Lds,
    mix: QueryMix,
    next_serial: usize,
    searches_with_hits: u64,
    steps: u64,
}

impl NetWorld {
    /// Builds the substrate, one servent per peer, and publishes the
    /// corpus through `Servent::create_object` + `Servent::publish`
    /// (track `i` by servent `i % peers`). Then takes the churn
    /// schedule's initial peers offline and runs one search, so state a
    /// substrate builds lazily (routing digests) is in place.
    pub fn build(spec: NetSpec, corpus: &Corpus, seed: u64) -> Result<NetWorld, CoreError> {
        let mut config = NetConfig::new();
        if spec.guided {
            config = config.digests(DigestConfig::guided());
        }
        if let Some(s) = spec.supers {
            config = config.supers(s);
        }
        let mut net = build_network_with(spec.kind, spec.peers, seed, &config);
        let community = tracks::community(spec.kind.schema_value());
        let mut servents: Vec<Servent> = (0..spec.peers)
            .map(|p| {
                let mut s = Servent::new(PeerId(p as u32));
                s.join(community.clone());
                s
            })
            .collect();
        let mut plane = PayloadPlane::new();
        for serial in 0..corpus.base() {
            let servent = &mut servents[serial % spec.peers];
            let object = corpus.with_values(serial, |v| servent.create_object(&community.id, v))?;
            servent.publish(net.as_mut(), &mut plane, &object)?;
        }
        let mut churn = rng_for(seed, "servbench-churn");
        let mut offline = Vec::new();
        while (offline.len() as f64) < spec.offline_share * spec.peers as f64 {
            let p = churn.gen_range(0..spec.peers) as u32;
            if net.is_alive(PeerId(p)) {
                net.set_alive(PeerId(p), false);
                offline.push(p);
            }
        }
        let mut rng = rng_for(seed, "servbench-ops");
        let mut world = NetWorld {
            spec,
            net,
            plane,
            servents,
            paths: community.indexed_paths(),
            community: community.id,
            offline,
            ops: Lds::new(&mut rng, Lds::SILVER),
            rng,
            mix: QueryMix::new(seed),
            next_serial: corpus.base(),
            searches_with_hits: 0,
            steps: 0,
        };
        let origin = world.live_peer();
        world.servents[origin].search(
            world.net.as_mut(),
            &world.community,
            &Query::keyword("title", "word0001"),
        )?;
        world.net.reset_stats();
        Ok(world)
    }

    /// One step of the seeded op sequence: a single op, or for the batch
    /// workload one batch with its single searches and publishes.
    pub fn step(&mut self, corpus: &Corpus, tr: &mut Tracer, rec: &mut Recorder) {
        if self.spec.offline_share > 0.0 && self.steps.is_multiple_of(CHURN_EVERY) {
            self.flap();
        }
        self.steps += 1;
        if let Some(batch) = self.spec.batch {
            self.batch(batch, tr, rec);
            for _ in 0..batch.singles {
                self.search(tr, rec, false);
            }
            for _ in 0..batch.publishes {
                self.publish(corpus, tr, rec);
            }
        } else if self.ops.next_point() < self.spec.publish_share {
            self.publish(corpus, tr, rec);
        } else {
            self.search(tr, rec, true);
        }
    }

    /// Index bytes of every servent's local repository.
    pub fn index_bytes(&self) -> f64 {
        self.servents
            .iter()
            .map(|s| s.repository().index_stats().approx_bytes as f64)
            .sum()
    }

    fn live_peer(&mut self) -> usize {
        loop {
            let p = self.rng.gen_range(0..self.spec.peers);
            if self.net.is_alive(PeerId(p as u32)) {
                return p;
            }
        }
    }

    /// Brings one offline peer back and takes one live peer down.
    fn flap(&mut self) {
        if self.offline.is_empty() {
            return;
        }
        let k = self.rng.gen_range(0..self.offline.len());
        let back = self.offline.swap_remove(k);
        let down = self.live_peer() as u32;
        self.net.set_alive(PeerId(back), true);
        self.net.set_alive(PeerId(down), false);
        self.offline.push(down);
    }

    fn publish(&mut self, corpus: &Corpus, tr: &mut Tracer, rec: &mut Recorder) {
        let serial = self.next_serial;
        self.next_serial += 1;
        let author = self.live_peer();
        let (net, plane, community) = (&mut self.net, &mut self.plane, &self.community);
        let servent = &mut self.servents[author];
        let (res, ns) = corpus.with_values(serial, |v| {
            tr.op("op.publish", |tr| {
                let object = tracks::create(tr, servent, community, v)?;
                tr.span("core.publish", || {
                    servent.publish(net.as_mut(), plane, &object)
                })
            })
        });
        match res {
            Ok(_) => rec.sample("publish", ns, 1),
            Err(e) => rec.fail(1, &e),
        }
    }

    fn search(&mut self, tr: &mut Tracer, rec: &mut Recorder, may_fetch: bool) {
        let origin = self.live_peer();
        let query = self.mix.next_query();
        let before = Counters::read(self.net.as_ref());
        let (net, community) = (&mut self.net, &self.community);
        let servent = &mut self.servents[origin];
        let (res, ns) = tr.op("op.search", |tr| {
            tr.span("net.search", || {
                servent.search(net.as_mut(), community, &query)
            })
        });
        let out = match res {
            Ok(out) => out,
            Err(e) => return rec.fail(1, &e),
        };
        rec.sample("search", ns, 1);
        let after = Counters::read(self.net.as_ref());
        let refreshed = after.digest > before.digest;
        rec.sample(
            if refreshed {
                "refresh_search"
            } else {
                "quiet_search"
            },
            ns,
            0,
        );
        if refreshed {
            rec.count("refreshes", 1.0);
            rec.count("refresh_digest_msgs", (after.digest - before.digest) as f64);
        }
        rec.count("query_msgs", (after.query - before.query) as f64);
        rec.count("queryhit_msgs", (after.queryhit - before.queryhit) as f64);
        self.account(&query, &out, rec);
        if may_fetch && !out.hits.is_empty() {
            self.searches_with_hits += 1;
            if self.searches_with_hits.is_multiple_of(4) {
                let hit = out.hits[self.rng.gen_range(0..out.hits.len())].clone();
                self.fetch(origin, &hit, tr, rec);
            }
        }
    }

    /// Seeded counters and output checks of one search outcome.
    fn account(&self, query: &Query, out: &SearchOutcome, rec: &mut Recorder) {
        rec.count("searches", 1.0);
        rec.count("msgs", out.messages as f64);
        rec.count("hits", out.hits.len() as f64);
        if !out.hits.is_empty() {
            rec.count("searches_with_hits", 1.0);
        }
        if let Some(t) = out.first_hit_latency {
            rec.value("first_hit_vms", t as f64 / 1000.0);
        }
        for hit in &out.hits {
            rec.check(query.matches_fields(&hit.fields), || {
                format!("hit {} does not satisfy {query:?}", hit.key)
            });
            rec.check(self.net.is_alive(hit.provider), || {
                format!("hit {} names offline provider {}", hit.key, hit.provider)
            });
        }
    }

    fn fetch(&mut self, origin: usize, hit: &SearchHit, tr: &mut Tracer, rec: &mut Recorder) {
        let (net, plane) = (&mut self.net, &mut self.plane);
        let servent = &mut self.servents[origin];
        let (res, ns) = tr.op(
            "op.fetch",
            |tr| -> Result<(SharedObject, String), CoreError> {
                let object = if tr.is_on() {
                    // `Servent::download`, one layer call at a time
                    let got = tr.span("net.retrieve", || {
                        net.retrieve(PeerId(origin as u32), hit.provider, &hit.key)
                    });
                    if !got.is_fetched() {
                        return Err(CoreError::Unavailable(format!("object {}", hit.key)));
                    }
                    let object = tr.span("core.payload_fetch", || plane.fetch(&hit.key))?;
                    tr.span("core.reshare", || {
                        servent.publish(net.as_mut(), plane, &object)
                    })?;
                    object
                } else {
                    servent.download(net.as_mut(), plane, hit)?
                };
                let html = tr.span("xslt.view", || servent.view_html(&object))?;
                Ok((object, html))
            },
        );
        rec.count("retrieves", 1.0);
        let (object, html) = match res {
            Ok(ok) => ok,
            Err(e) => {
                rec.count("retrieve_fails", 1.0);
                return rec.fail(1, &e);
            }
        };
        rec.sample("fetch", ns, 1);
        rec.check(object.key == hit.key, || {
            format!("fetched {} for hit {}", object.key, hit.key)
        });
        let rehashed = ResourceId::for_object(&object.community_id, &object.xml()).to_string();
        rec.check(rehashed == hit.key, || {
            format!("payload of {} hashes to {rehashed}", hit.key)
        });
        let fields = Repository::extract_fields(&object.doc, &self.paths);
        rec.check(fields[..] == hit.fields[..], || {
            format!("fields of {} differ from its hit", hit.key)
        });
        rec.check(!html.is_empty(), || format!("empty view of {}", hit.key));
    }

    fn batch(&mut self, spec: BatchSpec, tr: &mut Tracer, rec: &mut Recorder) {
        let requests: Vec<SearchRequest> = (0..spec.size)
            .map(|_| {
                let origin = PeerId(self.live_peer() as u32);
                SearchRequest::new(origin, self.community.clone(), self.mix.next_query())
            })
            .collect();
        let before = Counters::read(self.net.as_ref());
        let net = &mut self.net;
        let (outs, ns) = tr.op("op.batch", |tr| {
            tr.span("net.batch", || net.search_batch(&requests, spec.workers))
        });
        rec.sample("batch", ns, spec.size as u64);
        let after = Counters::read(self.net.as_ref());
        rec.count("query_msgs", (after.query - before.query) as f64);
        rec.count("queryhit_msgs", (after.queryhit - before.queryhit) as f64);
        rec.check(outs.len() == requests.len(), || {
            "batch lost outcomes".to_string()
        });
        for (req, out) in requests.iter().zip(&outs) {
            self.account(&req.query, out, rec);
        }
        if tr.is_on() {
            // the same batch at one worker: the pool's speed-up, and a
            // check that pooled serving answers like sequential serving
            let started = std::time::Instant::now();
            let seq = tr.span("net.batch_1w", || self.net.search_batch(&requests, 1));
            rec.sample("batch_1w", started.elapsed().as_nanos() as u64, 0);
            let keys = |o: &SearchOutcome| {
                let mut k: Vec<(String, PeerId)> =
                    o.hits.iter().map(|h| (h.key.clone(), h.provider)).collect();
                k.sort_unstable();
                k
            };
            let same =
                seq.len() == outs.len() && seq.iter().zip(&outs).all(|(a, b)| keys(a) == keys(b));
            rec.check(same, || {
                "pooled batch differs from one-worker serving".to_string()
            });
        }
    }
}
