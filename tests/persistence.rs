//! Servent state persistence and stylesheet propagation: a servent saved
//! to disk comes back with its communities (schemas, custom stylesheets)
//! and repository intact; custom stylesheets travel to joining peers as
//! attachments.

use up2p::sim::corpus::{pattern_community, pattern_values, GOF_PATTERNS};
use up2p::{build_network, PayloadPlane, PeerId, ProtocolKind, Query, Servent};

const CUSTOM_VIEW: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
  <xsl:output method="html"/>
  <xsl:template match="/"><h1 class="custom"><xsl:value-of select="//name"/></h1></xsl:template>
</xsl:stylesheet>"#;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("up2p-{name}-{}", std::process::id()))
}

#[test]
fn servent_state_round_trips() {
    let community = pattern_community().with_display_style(CUSTOM_VIEW);
    let mut net = build_network(ProtocolKind::Napster, 4, 1);
    let mut plane = PayloadPlane::new();
    let mut servent = Servent::new(PeerId(0));
    servent.join(community.clone());
    for p in &GOF_PATTERNS[..3] {
        let obj = servent.create_object(&community.id, &pattern_values(p)).unwrap();
        servent.publish(&mut *net, &mut plane, &obj).unwrap();
    }

    let dir = tmp("servent-state");
    let _ = std::fs::remove_dir_all(&dir);
    servent.save_state(&dir).unwrap();

    let restored = Servent::load_state(PeerId(0), &dir).unwrap();
    // same communities (root + patterns), same custom stylesheet
    let c = restored.community(&community.id).expect("community restored");
    assert_eq!(c.name, community.name);
    assert_eq!(c.display_style.as_deref(), Some(CUSTOM_VIEW));
    assert_eq!(c.schema_xsd(), community.schema_xsd());
    // repository contents survive
    assert_eq!(restored.local_objects(&community.id).len(), 3);
    let hits = restored
        .repository()
        .search(Some(&community.id), &Query::any_keyword("factory"));
    assert!(!hits.is_empty());
    // and the restored servent can create new valid objects right away
    assert!(restored.create_object(&community.id, &pattern_values(&GOF_PATTERNS[5])).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn custom_stylesheets_propagate_to_joining_peers() {
    let community = pattern_community().with_display_style(CUSTOM_VIEW);
    let mut net = build_network(ProtocolKind::Napster, 8, 2);
    let mut plane = PayloadPlane::new();

    let mut founder = Servent::new(PeerId(1));
    founder.publish_community(&mut *net, &mut plane, &community).unwrap();
    let obj = founder
        .create_object(&community.id, &pattern_values(&GOF_PATTERNS[18]))
        .unwrap();
    founder.publish(&mut *net, &mut plane, &obj).unwrap();

    let mut joiner = Servent::new(PeerId(5));
    let found = joiner.discover_communities(&mut *net, &Query::any_keyword("gof")).unwrap();
    let id = joiner.join_from_hit(&mut *net, &mut plane, &found.hits[0]).unwrap();
    assert_eq!(id, community.id, "styled community keeps one identity everywhere");

    // the joiner renders objects with the founder's custom stylesheet
    let hits = joiner.search(&mut *net, &id, &Query::keyword("name", "observer")).unwrap();
    let downloaded = joiner.download(&mut *net, &mut plane, &hits.hits[0]).unwrap();
    let html = joiner.view_html(&downloaded).unwrap();
    assert_eq!(html, r#"<h1 class="custom">Observer</h1>"#);
}

#[test]
fn load_state_with_missing_dir_fails_cleanly() {
    let err = Servent::load_state(PeerId(0), &tmp("no-such-dir")).unwrap_err();
    assert!(matches!(err, up2p::CoreError::Store(_)));
}

#[test]
fn saved_state_loads_through_manifest_fast_path_without_retokenizing() {
    use up2p::store::{token_passes, Repository};
    let community = pattern_community();
    let mut servent = Servent::new(PeerId(0));
    servent.join(community.clone());
    let mut net = build_network(ProtocolKind::Napster, 2, 1);
    let mut plane = PayloadPlane::new();
    for p in &GOF_PATTERNS[..6] {
        let obj = servent.create_object(&community.id, &pattern_values(p)).unwrap();
        servent.publish(&mut *net, &mut plane, &obj).unwrap();
    }
    let dir = tmp("fast-path-state");
    let _ = std::fs::remove_dir_all(&dir);
    servent.save_state(&dir).unwrap();

    // save_state writes a durable snapshot: the repository directory is
    // manifest-committed, and loading it runs zero tokenization passes
    let repo_dir = dir.join("repository");
    let passes_before = token_passes();
    let (loaded, report) = Repository::load_dir_report(&repo_dir).unwrap();
    assert_eq!(token_passes() - passes_before, 0, "recovery must not re-tokenize");
    assert!(report.from_manifest, "manifest fast path must be taken");
    assert_eq!(report.objects, 6);
    let recovery = report.recovery.expect("fast path reports recovery detail");
    assert_eq!(recovery.segment_objects, 6);
    assert_eq!(recovery.torn_bytes, 0);

    // the recovered index answers queries identically to the original
    for q in [
        Query::any_keyword("factory"),
        Query::keyword("name", "observer"),
        Query::eq("category", "creational"),
    ] {
        let before: Vec<_> =
            servent.repository().search(None, &q).iter().map(|o| o.id.clone()).collect();
        let after: Vec<_> = loaded.search(None, &q).iter().map(|o| o.id.clone()).collect();
        assert_eq!(before, after, "on {q}");
    }

    // regression: re-saving over unchanged state and re-loading still
    // takes the fast path (no index rebuild from XML), just a newer
    // generation
    servent.save_state(&dir).unwrap();
    let (_, report2) = Repository::load_dir_report(&repo_dir).unwrap();
    assert!(report2.from_manifest);
    assert!(report2.recovery.expect("detail").generation > recovery.generation);

    // and the full servent restore path uses the same loader
    let restored = Servent::load_state(PeerId(0), &dir).unwrap();
    assert_eq!(restored.local_objects(&community.id).len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn legacy_xml_directories_still_load_via_fallback() {
    use up2p::store::{Repository, StoredObject};
    let community = pattern_community();
    let mut servent = Servent::new(PeerId(0));
    servent.join(community.clone());
    let obj = servent.create_object(&community.id, &pattern_values(&GOF_PATTERNS[0])).unwrap();
    let mut net = build_network(ProtocolKind::Napster, 2, 1);
    let mut plane = PayloadPlane::new();
    servent.publish(&mut *net, &mut plane, &obj).unwrap();

    // write the pre-durable layout (one XML wrapper per object) directly
    let dir = tmp("legacy-xml");
    let _ = std::fs::remove_dir_all(&dir);
    servent.repository().save_dir(&dir).unwrap();
    let (loaded, report) = Repository::load_dir_report(&dir).unwrap();
    assert!(!report.from_manifest, "no manifest → legacy scan");
    assert!(report.recovery.is_none());
    let objects: Vec<StoredObject> = loaded.iter().cloned().collect();
    assert_eq!(objects.len(), 1);
    assert_eq!(objects[0].id.to_string(), obj.key);
    std::fs::remove_dir_all(&dir).unwrap();
}
