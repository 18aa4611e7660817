//! The metric catalogue is enforced: every counter, gauge and histogram a
//! deployment registers must match a row of the "Registry layout" table in
//! DESIGN.md §9, and every row must match at least one registered name.
//!
//! Row syntax (first column, one backticked pattern per row): `{a,b}` is
//! alternation, `<i>` is a decimal index (L-node, endpoint), `*` is any
//! non-empty run of characters — used only where the set is open-ended
//! (span phases, per-tenant names).

use std::collections::BTreeSet;
use std::sync::Arc;

use slim_frontend::{FrontendBuilder, FrontendConfig, Request};
use slim_oss::NetworkModel;
use slim_types::{FileId, SlimConfig};
use slimstore::{SlimStoreBuilder, TenantStoreManager};

const DESIGN: &str = include_str!("../DESIGN.md");

/// The patterns of the "Registry layout" table, braces expanded.
fn catalogue() -> Vec<(String, Vec<String>)> {
    let section = DESIGN
        .split("### Registry layout")
        .nth(1)
        .expect("DESIGN.md has a Registry layout section")
        .split("\n### ")
        .next()
        .unwrap();
    let rows: Vec<(String, Vec<String>)> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|rest| {
            let pattern = rest.split('`').next().unwrap().to_string();
            let expanded = expand(&pattern);
            (pattern, expanded)
        })
        .collect();
    assert!(rows.len() > 10, "table not found or not parsed: {rows:?}");
    rows
}

/// Expand every `{a,b,…}` group of `pattern` (groups do not nest).
fn expand(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("unbalanced brace");
    let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
    pattern[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{head}{alt}{tail}")))
        .collect()
}

/// Whether `name` matches a brace-free pattern with `<i>` and `*` wildcards.
fn matches(pattern: &str, name: &str) -> bool {
    if let Some(rest) = pattern.strip_prefix("<i>") {
        let digits = name.bytes().take_while(u8::is_ascii_digit).count();
        return (1..=digits).any(|n| matches(rest, &name[n..]));
    }
    if let Some(rest) = pattern.strip_prefix('*') {
        return (1..=name.len())
            .filter(|&n| name.is_char_boundary(n))
            .any(|n| matches(rest, &name[n..]));
    }
    match (pattern.chars().next(), name.chars().next()) {
        (None, None) => true,
        (Some(p), Some(c)) if p == c => matches(&pattern[p.len_utf8()..], &name[c.len_utf8()..]),
        _ => false,
    }
}

/// Every metric name a deployment and a frontend register while doing one
/// of everything: backup, both restore paths, a G-node cycle, retention.
fn registered_names() -> BTreeSet<String> {
    // The default configuration, plus the one wrapper it leaves out.
    let store = SlimStoreBuilder::in_memory()
        .with_config(SlimConfig::default().with_retry_attempts(2))
        .build()
        .unwrap();
    let file = FileId::new("db/t");
    let payload: Vec<u8> = (0..300_000u32).map(|i| (i * 31 % 251) as u8).collect();
    for _ in 0..2 {
        let report = store
            .backup_version(vec![(file.clone(), payload.clone())])
            .unwrap();
        store.restore_file(&file, report.version).unwrap();
        store
            .restore_file_to(&file, report.version, &mut std::io::sink())
            .unwrap();
        store.run_gnode_cycle(report.version).unwrap();
    }
    store.retain_last(1).unwrap();
    store.scrub_orphans().unwrap();
    store.repair().unwrap();
    store.gnode().vacuum().unwrap();
    let snap = store.telemetry_snapshot();

    let manager = Arc::new(TenantStoreManager::in_memory(NetworkModel::instant()));
    let frontend = FrontendBuilder::new(manager)
        .with_config(FrontendConfig::small_for_tests())
        .start()
        .unwrap();
    let ticket = frontend
        .submit(
            "acme",
            Request::Backup {
                files: vec![(file, payload)],
                jobs: 1,
            },
        )
        .expect("admitted");
    ticket.wait().unwrap();
    frontend.shutdown();
    let front = frontend.telemetry_snapshot();

    [snap, front]
        .iter()
        .flat_map(|s| {
            s.counters
                .keys()
                .chain(s.gauges.keys())
                .chain(s.histograms.keys())
        })
        .cloned()
        .collect()
}

#[test]
fn registered_metrics_and_design_catalogue_agree() {
    let rows = catalogue();
    let names = registered_names();
    let unlisted: Vec<&String> = names
        .iter()
        .filter(|name| {
            !rows
                .iter()
                .any(|(_, alts)| alts.iter().any(|p| matches(p, name)))
        })
        .collect();
    assert!(
        unlisted.is_empty(),
        "registered but not in DESIGN.md §9 Registry layout: {unlisted:#?}"
    );
    let unregistered: Vec<&String> = rows
        .iter()
        .filter(|(_, alts)| !alts.iter().any(|p| names.iter().any(|n| matches(p, n))))
        .map(|(pattern, _)| pattern)
        .collect();
    assert!(
        unregistered.is_empty(),
        "in DESIGN.md §9 Registry layout but never registered: {unregistered:#?}"
    );
}

#[test]
fn pattern_matcher_follows_the_row_syntax() {
    assert_eq!(expand("a.{b,c}_x"), vec!["a.b_x", "a.c_x"]);
    assert_eq!(expand("{a,b}.{c,d}").len(), 4);
    assert!(matches("lnode.<i>.chunks", "lnode.12.chunks"));
    assert!(!matches("lnode.<i>.chunks", "lnode..chunks"));
    assert!(!matches("lnode.<i>.chunks", "lnode.x.chunks"));
    assert!(matches("gnode.span.*", "gnode.span.cycle.mark"));
    assert!(!matches("gnode.span.*", "gnode.span."));
    assert!(matches(
        "frontend.tenant.*.shed",
        "frontend.tenant.acme.shed"
    ));
    assert!(!matches("oss.get_requests", "oss.get_requests2"));
}
