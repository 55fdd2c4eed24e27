//! What the integration tests share: scratch directories, closed-loop
//! scripts, served listings against the brute-force oracle, `stats`
//! fields, and random hierarchical queries and databases. Each test file
//! takes it with `mod support;` and uses what it needs.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;

use ivme_core::{brute_force, Database};
use ivme_data::{Schema, Tuple, Var};
use ivme_query::{parse_query, Atom, Query};
use ivme_server::repl::{Replica, ReplicaConfig};
use ivme_workload::{parse_listing, Client, RecoveryWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fresh path under the temp dir, unique to this test binary, this
/// process and `name`; whatever was there is removed, and nothing is
/// created.
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = format!(
        "ivme_{}_{}_{name}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    );
    let d = std::env::temp_dir().join(dir);
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A replica of the primary whose replication listener is at `primary`,
/// serving on an ephemeral port.
pub fn start_replica(primary: impl ToString) -> Replica {
    Replica::start(ReplicaConfig {
        primary: primary.to_string(),
        listen: "127.0.0.1:0".to_owned(),
    })
    .expect("replica must start")
}

/// `bytes` with one seeded flip of a bit, or cut at a seeded length.
pub fn damaged(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = bytes.to_vec();
    let at = rng.gen_range(0..out.len());
    match rng.gen_bool(0.5) {
        true => out[at] ^= 1 << rng.gen_range(0..8u32),
        false => out.truncate(at),
    }
    out
}

/// Runs every line of `script` closed-loop, panicking on any `err`.
pub fn run_script(c: &mut Client, script: &str) {
    for line in script.lines() {
        c.expect_ok(line);
    }
}

/// Commits the workload's batches `ks`, one closed-loop script each.
pub fn run_batches(c: &mut Client, wl: &RecoveryWorkload, ks: Range<usize>) {
    for k in ks {
        run_script(c, &wl.batch_script(k));
    }
}

/// The served result, parsed and sorted — comparable to `brute_force`.
pub fn listing(addr: SocketAddr) -> Vec<(Tuple, i64)> {
    let mut c = Client::connect(addr).unwrap();
    parse_listing(&c.expect_ok("list")).unwrap()
}

/// The brute-force result after the workload's first `k` batches.
pub fn oracle(wl: &RecoveryWorkload, k: usize) -> Vec<(Tuple, i64)> {
    let q = parse_query(ivme_workload::recovery::QUERY).unwrap();
    brute_force(&q, &wl.database_after(k))
}

/// A `key = value` field of a `stats` payload, which must be there.
pub fn stat_field(stats: &str, key: &str) -> u64 {
    ivme_workload::stat_field(stats, key).unwrap_or_else(|| panic!("no `{key}` in stats: {stats}"))
}

/// A random hierarchical query from a seed: a random forest of variables
/// with atoms attached along root-to-node paths, hierarchical by
/// construction.
pub fn random_hierarchical_query(seed: u64) -> Query {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut atoms: Vec<Atom> = Vec::new();
    let mut var_counter = 0usize;
    let mut rel_counter = 0usize;
    let components = 1 + rng.gen_range(0..2);
    for _ in 0..components {
        let root = fresh_var(&mut var_counter);
        grow(
            &mut rng,
            vec![root],
            0,
            &mut atoms,
            &mut var_counter,
            &mut rel_counter,
        );
        if atoms.len() >= 5 {
            break;
        }
    }
    let mut vars = Schema::empty();
    for a in &atoms {
        vars = vars.union(&a.schema);
    }
    // A random free set, deterministic: the variables are iterated in order.
    let free: Schema = vars
        .vars()
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.5))
        .collect();
    Query::new("Q", free, atoms)
}

fn fresh_var(counter: &mut usize) -> Var {
    let v = Var::new(&format!("V{counter}"));
    *counter += 1;
    v
}

fn grow(
    rng: &mut StdRng,
    path: Vec<Var>,
    depth: usize,
    atoms: &mut Vec<Atom>,
    var_counter: &mut usize,
    rel_counter: &mut usize,
) {
    let kids = if depth >= 2 || atoms.len() >= 4 {
        0
    } else {
        rng.gen_range(0..=2)
    };
    if kids == 0 || rng.gen_bool(0.3) {
        let name = format!("R{rel_counter}");
        *rel_counter += 1;
        atoms.push(Atom::new(name, Schema::new(path.clone())));
    }
    for _ in 0..kids {
        let mut p = path.clone();
        p.push(fresh_var(var_counter));
        grow(rng, p, depth + 1, atoms, var_counter, rel_counter);
    }
}

/// Each relation `q` names, once, with its arity.
pub fn relations(q: &Query) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = Vec::new();
    for a in &q.atoms {
        if !out.iter().any(|(n, _)| n == &a.relation) {
            out.push((a.relation.clone(), a.schema.arity()));
        }
    }
    out
}

/// A tuple of `arity` integers drawn from `0..domain`.
pub fn random_tuple(rng: &mut StdRng, arity: usize, domain: i64) -> Tuple {
    Tuple::ints(
        &(0..arity)
            .map(|_| rng.gen_range(0..domain))
            .collect::<Vec<i64>>(),
    )
}

/// A random database over a tiny domain (dense joins) for `q`.
pub fn random_db(q: &Query, seed: u64, rows: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for a in &q.atoms {
        for _ in 0..rows {
            let t: Tuple = Tuple::ints(
                &(0..a.schema.arity())
                    .map(|_| rng.gen_range(0..4i64))
                    .collect::<Vec<_>>(),
            );
            db.insert(&a.relation, t, 1);
        }
    }
    db
}
