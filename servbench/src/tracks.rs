//! The tracks community every workload shares: its schema, the seeded
//! corpus (shaped like `up2p_sim::corpus::synthetic_track_fields`) and
//! the E9-shaped query mix.

use rand::rngs::StdRng;
use rand::Rng;
use up2p_core::{Community, CoreError, FormKind, FormModel, Servent, SharedObject};
use up2p_schema::{FieldKind, SchemaBuilder};
use up2p_sim::corpus::{synthetic_track_fields, TRACK_GENRES};
use up2p_sim::{rng_for, Zipf};
use up2p_store::{Query, ResourceId, ValuePattern};

use crate::trace::Tracer;

/// The tracks community: a serial number that keeps every object
/// content-distinct, plus the four searchable corpus fields.
pub fn community(protocol: &str) -> Community {
    let mut b = SchemaBuilder::new("track");
    b.field(FieldKind::text("serial"))
        .field(FieldKind::text("title").searchable())
        .field(FieldKind::text("artist").searchable())
        .field(FieldKind::enumeration("genre", TRACK_GENRES).searchable())
        .field(FieldKind::text("year").searchable());
    Community::from_builder(
        "tracks",
        "Music tracks",
        "music tracks",
        "music",
        protocol,
        &b,
    )
    .expect("the tracks schema is static and valid")
}

/// Seeded track metadata. Serial `s` below `base` names corpus entry
/// `s`; later serials cycle through `extra` further entries, so fresh
/// publishes never run out and stay distinct by serial.
pub struct Corpus {
    rows: Vec<[String; 4]>,
    base: usize,
}

impl Corpus {
    /// `base` initial tracks plus `extra` entries for later publishes.
    pub fn new(base: usize, extra: usize, seed: u64) -> Corpus {
        let rows = synthetic_track_fields(base + extra.max(1), seed)
            .into_iter()
            .map(|fields| {
                let mut row: [String; 4] = Default::default();
                for (path, value) in fields {
                    let slot = match path.as_str() {
                        "track/title" => 0,
                        "track/artist" => 1,
                        "track/genre" => 2,
                        _ => 3,
                    };
                    row[slot] = value;
                }
                row
            })
            .collect();
        Corpus { rows, base }
    }

    /// Number of initial tracks.
    pub fn base(&self) -> usize {
        self.base
    }

    /// Calls `f` with the create-form values of track `serial`.
    pub fn with_values<R>(&self, serial: usize, f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
        let row = if serial < self.base {
            &self.rows[serial]
        } else {
            let extra = self.rows.len() - self.base;
            &self.rows[self.base + (serial - self.base) % extra]
        };
        let serial = serial.to_string();
        f(&[
            ("serial", &serial),
            ("title", &row[0]),
            ("artist", &row[1]),
            ("genre", &row[2]),
            ("year", &row[3]),
        ])
    }
}

/// A seeded low-discrepancy sequence in `[0, 1)`: `x ← frac(x + step)`
/// for an irrational `step`. Draws from it cover the unit interval far
/// more evenly than independent uniforms, so the share of each kind of
/// draw in a run barely moves from seed to seed, while the seed still
/// picks where the sequence starts.
pub struct Lds {
    x: f64,
    step: f64,
}

impl Lds {
    /// Golden-ratio step.
    pub const GOLDEN: f64 = 0.618_033_988_749_894_9;
    /// `sqrt(2) - 1` step.
    pub const SILVER: f64 = 0.414_213_562_373_095_1;

    /// A sequence with this step, started at a point drawn from `rng`.
    pub fn new(rng: &mut StdRng, step: f64) -> Lds {
        Lds {
            x: rng.gen::<f64>(),
            step,
        }
    }

    /// The next point.
    pub fn next_point(&mut self) -> f64 {
        self.x = (self.x + self.step).fract();
        self.x
    }
}

/// The E9 query mix: per 20 queries, 10 title keywords, 5 genre
/// equalities, 3 genre ∧ keyword and 2 artist-prefix wildcards. Words
/// are Zipf(5000, 1.05) ranks drawn by inverse CDF at low-discrepancy
/// points; genres and artist prefixes rotate through every value from a
/// seeded start.
pub struct QueryMix {
    cdf: Vec<f64>,
    words: Lds,
    genre: usize,
    artist: usize,
    i: u64,
}

impl QueryMix {
    /// The seeded mix.
    pub fn new(seed: u64) -> QueryMix {
        let mut rng = rng_for(seed, "servbench-queries");
        let zipf = Zipf::new(5000, 1.05);
        let mut acc = 0.0;
        let cdf = (0..zipf.len())
            .map(|k| {
                acc += zipf.pmf(k);
                acc
            })
            .collect();
        QueryMix {
            cdf,
            words: Lds::new(&mut rng, Lds::GOLDEN),
            genre: rng.gen_range(0..TRACK_GENRES.len()),
            artist: rng.gen_range(0..100),
            i: 0,
        }
    }

    fn word(&mut self) -> String {
        let u = self.words.next_point();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        format!("word{rank:04}")
    }

    fn genre(&mut self) -> &'static str {
        self.genre = (self.genre + 1) % TRACK_GENRES.len();
        TRACK_GENRES[self.genre]
    }

    /// The next query of the sequence.
    pub fn next_query(&mut self) -> Query {
        let i = self.i;
        self.i += 1;
        match i % 20 {
            0..=9 => Query::keyword("title", &self.word()),
            10..=14 => Query::eq("track/genre", self.genre()),
            15..=17 => {
                let genre = self.genre();
                Query::and([
                    Query::eq("track/genre", genre),
                    Query::keyword("title", &self.word()),
                ])
            }
            _ => {
                // 37 is coprime to 100: every prefix once per 100 draws
                self.artist = (self.artist + 37) % 100;
                Query::Match {
                    field: "track/artist".to_string(),
                    pattern: ValuePattern::from_wildcard(&format!("artist{:02}*", self.artist)),
                }
            }
        }
    }
}

/// `Servent::create_object`, split into the layer calls it is made of
/// when tracing is on: form derive + fill (core), validation (schema),
/// canonical serialization (xml) and the content key (store).
pub fn create(
    tr: &mut Tracer,
    servent: &Servent,
    community_id: &str,
    values: &[(&str, &str)],
) -> Result<SharedObject, CoreError> {
    if !tr.is_on() {
        return servent.create_object(community_id, values);
    }
    let community = servent
        .community(community_id)
        .ok_or_else(|| CoreError::UnknownCommunity(community_id.to_string()))?;
    let doc = tr.span("core.form_fill", || {
        FormModel::derive(community, FormKind::Create).fill(community.object_root_name(), values)
    })?;
    tr.span("schema.validate", || community.validate(&doc))?;
    let xml = tr.span("xml.serialize", || doc.to_xml_string());
    let key = tr.span("store.object_id", || {
        ResourceId::for_object(community_id, &xml).to_string()
    });
    Ok(SharedObject {
        key,
        community_id: community_id.to_string(),
        doc,
        attachments: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_has_the_e9_shape_and_repeats_per_seed() {
        let kinds = |seed| {
            let mut m = QueryMix::new(seed);
            (0..40)
                .map(|_| format!("{:?}", m.next_query()))
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(1), kinds(1));
        assert_ne!(kinds(1), kinds(2));
        let mut m = QueryMix::new(3);
        let q: Vec<Query> = (0..20).map(|_| m.next_query()).collect();
        assert_eq!(q.iter().filter(|q| matches!(q, Query::And(_))).count(), 3);
        assert_eq!(
            q.iter()
                .filter(|q| matches!(q, Query::Match { .. }))
                .count(),
            2 + 5
        );
    }

    #[test]
    fn traced_create_builds_the_same_object() {
        let c = community("Napster");
        let mut s = Servent::new(up2p_net::PeerId(0));
        s.join(c.clone());
        let corpus = Corpus::new(4, 2, 9);
        let mut tr = Tracer::new(|| 0);
        let plain = corpus
            .with_values(5, |v| create(&mut tr, &s, &c.id, v))
            .expect("create");
        tr.set_on(true);
        let traced = corpus
            .with_values(5, |v| create(&mut tr, &s, &c.id, v))
            .expect("create");
        assert_eq!(plain.key, traced.key);
        assert_eq!(plain.xml(), traced.xml());
        assert_eq!(tr.len(), 4);
    }
}
