//! Loopback concurrency: no torn reads through the serving layer.
//!
//! One writer client applies a randomized sequence of delta batches
//! through the group-commit channel while reader clients continuously
//! enumerate over TCP. Every observed state must equal the brute-force
//! result of some *prefix* of the applied batches — the writer thread
//! publishes an immutable snapshot only after a group commits, and each
//! read dispatches against exactly one published snapshot, so a
//! half-applied batch (a "torn read") can never be observed even though
//! no read ever takes a lock. Readers also interleave `stats` probes and
//! assert the published `snapshot_epoch` is monotone per connection —
//! the observable face of the publish ordering. A mid-stream poisoned
//! batch must reject without perturbing the prefix sequence (rejections
//! publish nothing).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ivme::core::{brute_force, Database};
use ivme::data::Tuple;
use ivme::query::parse_query;
use ivme::workload::serve::{Client, Script};
use ivme_server::{Server, ServerConfig};

const QUERY: &str = "Q(A,C) :- R(A,B), S(B,C)";
const RELS: &[(&str, usize)] = &[("R", 2), ("S", 2)];
const DOMAIN: i64 = 5;

/// Canonical snapshot form: the sorted `"tuple xmult"` lines.
fn canon(rows: &[(Tuple, i64)]) -> Vec<String> {
    let mut lines: Vec<String> = rows.iter().map(|(t, m)| format!("{t} x{m}")).collect();
    lines.sort();
    lines
}

/// Parses a `list` response back into canonical form (drops the trailing
/// `(n tuples)` summary line).
fn canon_of_list(payload: &str) -> Vec<String> {
    let mut lines: Vec<String> = payload
        .lines()
        .filter(|l| !l.ends_with("tuples)"))
        .map(str::to_owned)
        .collect();
    lines.sort();
    lines
}

/// Renders one mixed batch as a pipelined script of the shared grammar.
fn batch_script(batch: &[(&str, Tuple, i64)]) -> Script {
    let mut text = String::from(".batch begin\n");
    for (rel, t, delta) in batch {
        let verb = if *delta > 0 { "insert" } else { "delete" };
        let _ = write!(text, "{verb} {rel} ");
        for (i, v) in t.values().iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let _ = write!(text, "{v}");
        }
        text.push('\n');
    }
    text.push_str(".batch commit\n");
    Script {
        text,
        requests: batch.len() + 2,
        updates: batch.len(),
    }
}

#[test]
fn readers_never_observe_torn_batches() {
    let q = parse_query(QUERY).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);

    // Seeded database + a randomized batch sequence (inserts and deletes
    // of live tuples only — every batch must be accepted).
    let mut db = Database::new();
    for (rel, arity) in RELS {
        for _ in 0..12 {
            let t = Tuple::ints(
                &(0..*arity)
                    .map(|_| rng.gen_range(0..DOMAIN))
                    .collect::<Vec<i64>>(),
            );
            db.apply(rel, t, 1);
        }
    }
    let mut sim = db.clone();
    let mut batches: Vec<Vec<(&str, Tuple, i64)>> = Vec::new();
    for _ in 0..24 {
        let mut batch = Vec::new();
        for _ in 0..rng.gen_range(1..6) {
            let (rel, arity) = RELS[rng.gen_range(0..RELS.len())];
            let t = Tuple::ints(
                &(0..arity)
                    .map(|_| rng.gen_range(0..DOMAIN))
                    .collect::<Vec<i64>>(),
            );
            // Delete only when the tuple is live *after* the batch's own
            // earlier entries (consolidation sees the net delta).
            let staged: i64 = batch
                .iter()
                .filter(|(r, bt, _)| *r == rel && bt == &t)
                .map(|(_, _, d)| d)
                .sum();
            let delta = if sim.get(rel, &t) + staged > 0 && rng.gen_bool(0.4) {
                -1
            } else {
                1
            };
            batch.push((rel, t, delta));
        }
        for (rel, t, delta) in &batch {
            sim.apply(rel, t.clone(), *delta);
        }
        batches.push(batch);
    }

    // Ground truth per prefix: brute force after 0, 1, …, 24 batches.
    let mut prefix_db = db.clone();
    let mut prefixes: Vec<Vec<String>> = vec![canon(&brute_force(&q, &prefix_db))];
    for batch in &batches {
        for (rel, t, delta) in batch {
            prefix_db.apply(rel, t.clone(), *delta);
        }
        prefixes.push(canon(&brute_force(&q, &prefix_db)));
    }
    let valid: HashSet<&Vec<String>> = prefixes.iter().collect();

    // Server setup over the wire.
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let mut admin = Client::connect(addr).unwrap();
    admin.expect_ok(&format!("query {QUERY}"));
    for (rel, _) in RELS {
        for (t, m) in db.rows(rel) {
            for _ in 0..m {
                let vals: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
                admin.expect_ok(&format!("row {rel} {}", vals.join(",")));
            }
        }
    }
    admin.expect_ok("build");
    assert_eq!(canon_of_list(&admin.expect_ok("list")), prefixes[0]);

    // Readers enumerate concurrently with the writer; every snapshot must
    // be some prefix.
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let done = &done;
                let valid = &valid;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let mut reads = 0usize;
                    let mut last_epoch = 0u64;
                    while !done.load(Ordering::Relaxed) || reads < 40 {
                        let snap = canon_of_list(&c.expect_ok("list"));
                        assert!(
                            valid.contains(&snap),
                            "torn read: observed snapshot matches no prefix:\n{snap:?}"
                        );
                        // The published snapshot epoch never goes backwards
                        // on one connection.
                        let stats = c.expect_ok("stats");
                        let epoch: u64 = stats
                            .split("snapshot_epoch = ")
                            .nth(1)
                            .and_then(|s| s.split_whitespace().next())
                            .expect("stats must report snapshot_epoch")
                            .parse()
                            .unwrap();
                        assert!(
                            epoch >= last_epoch,
                            "snapshot_epoch went backwards: {last_epoch} -> {epoch}"
                        );
                        last_epoch = epoch;
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        let mut writer = Client::connect(addr).unwrap();
        for (i, batch) in batches.iter().enumerate() {
            let errors = writer.run_script(&batch_script(batch)).unwrap();
            assert_eq!(errors, 0, "batch {i} unexpectedly rejected");
            // Mid-stream, fire a poisoned batch: it must reject without
            // adding an observable state.
            if i == batches.len() / 2 {
                let poison = vec![("R", Tuple::ints(&[99, 99]), -1)];
                let errors = writer.run_script(&batch_script(&poison)).unwrap();
                assert_eq!(errors, 1, "over-delete must reject");
            }
        }
        done.store(true, Ordering::Relaxed);
        let total: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total >= 120, "readers barely ran ({total} reads)");
    });

    // Final state is exactly the full prefix.
    assert_eq!(
        canon_of_list(&admin.expect_ok("list")),
        *prefixes.last().unwrap()
    );
    let stats = admin.expect_ok("stats");
    assert!(stats.contains("misroutes = 0"), "{stats}");
}
