//! Plans can never change results: generated statements over a small
//! schema with every kind of index, run through the chosen plan, its
//! forced-scan version and the naive reference (`common::execute_checked`),
//! with parameter
//! draws that include NULL keys and empty ranges; and a plan value reused
//! across a thousand draws answers like a plan bound fresh for each.

mod common;

use common::{execute_checked, gen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tenantdb_sql::{execute, parse, plan, run, SqlError};
use tenantdb_storage::{DataType, Engine, EngineConfig, Value};

const DB: &str = "db";

/// `t` (pk `id`, single-column indexes on `a` and `s`, a composite one on
/// `(a, b)`, NULLs in `a`, `b` and `s`), `u` (pk `id`, index on `t_id`) and
/// `g` (pk `id`, indexes on the few-valued `k` and the FLOAT `f`, small `n`).
fn engine() -> Engine {
    let e = Engine::new(EngineConfig::for_tests());
    e.create_database(DB).unwrap();
    let txn = e.begin().unwrap();
    let ddl = |sql: &str| {
        execute(&e, txn, DB, sql, &[]).unwrap();
    };
    ddl("CREATE TABLE t (id INT NOT NULL, a INT, b INT, s TEXT, PRIMARY KEY (id))");
    ddl("CREATE INDEX by_a ON t (a)");
    ddl("CREATE INDEX by_s ON t (s)");
    ddl("CREATE INDEX by_ab ON t (a, b)");
    ddl("CREATE TABLE u (id INT NOT NULL, t_id INT, v INT, PRIMARY KEY (id))");
    ddl("CREATE INDEX by_t ON u (t_id)");
    let rng = &mut StdRng::seed_from_u64(42);
    // An INT below `n`, or (one time in seven) NULL.
    let int = |rng: &mut StdRng, n: i64| match rng.gen_range(-n / 6 - 1..n) {
        i if i < 0 => Value::Null,
        i => Value::Int(i),
    };
    for id in 0..40 {
        let s = match int(rng, 6) {
            Value::Int(i) => Value::Text(format!("s{i}")),
            null => null,
        };
        let row = [Value::Int(id), int(rng, 12), int(rng, 4), s];
        execute(&e, txn, DB, "INSERT INTO t VALUES (?, ?, ?, ?)", &row).unwrap();
    }
    for id in 0..60 {
        let row = [
            Value::Int(id),
            int(rng, 44),
            Value::Int(rng.gen_range(0..10)),
        ];
        execute(&e, txn, DB, "INSERT INTO u VALUES (?, ?, ?)", &row).unwrap();
    }
    ddl("CREATE TABLE g (id INT NOT NULL, k INT, f FLOAT, n INT, PRIMARY KEY (id))");
    ddl("CREATE INDEX by_k ON g (k)");
    ddl("CREATE INDEX by_f ON g (f)");
    // FLOAT values INT and FLOAT alike, `1` next to `1.0`.
    let floats = [
        Value::Int(1),
        Value::Float(1.0),
        Value::Int(2),
        Value::Float(2.5),
        Value::Float(-0.0),
        Value::Int(0),
        Value::Null,
    ];
    for id in 0..48 {
        let f = floats[rng.gen_range(0..floats.len())].clone();
        let row = [Value::Int(id), int(rng, 5), f, int(rng, 3)];
        execute(&e, txn, DB, "INSERT INTO g VALUES (?, ?, ?, ?)", &row).unwrap();
    }
    e.commit(txn).unwrap();
    e
}

fn grouped_vocab() -> gen::Vocab {
    use DataType::{Float, Int};
    let cols = [("id", Int), ("k", Int), ("f", Float), ("n", Int)];
    let cols = cols.iter().map(|(c, ty)| (c.to_string(), *ty)).collect();
    vec![("g".to_string(), cols)]
}

fn vocab() -> gen::Vocab {
    let table = |name: &str, cols: &[(&str, DataType)]| {
        let cols = cols.iter().map(|(c, ty)| (c.to_string(), *ty)).collect();
        (name.to_string(), cols)
    };
    use DataType::{Int, Text};
    vec![
        table("t", &[("id", Int), ("a", Int), ("b", Int), ("s", Text)]),
        table("u", &[("id", Int), ("t_id", Int), ("v", Int)]),
    ]
}

/// The `case`-th statement: a SELECT (two in three) or an UPDATE / DELETE,
/// as the text it prints to.
fn statement(case: u64) -> (String, gen::Slots) {
    let rng = &mut StdRng::seed_from_u64(case);
    let (stmt, slots) = if case % 3 < 2 {
        gen::select(rng, &vocab(), Some(("t_id", "id")))
    } else {
        // The primary key stays put, so no draw fails on uniqueness.
        gen::write(rng, &vocab(), &["a", "b", "s"])
    };
    (stmt.to_string(), slots)
}

/// (a) Chosen plan and forced-scan reference agree, statement by statement
/// and draw by draw. Writes are rolled back, so every case sees the same
/// data.
#[test]
fn chosen_plans_match_their_forced_scan_reference() {
    let e = engine();
    let (mut verdicts, mut indexed) = (0, 0);
    for case in 0..600 {
        let (sql, slots) = statement(case);
        let stmt = parse(&sql).unwrap();
        let bound = plan(&e, DB, &stmt).unwrap_or_else(|err| panic!("case {case}: {sql}: {err}"));
        indexed += usize::from(bound != bound.forcing_scans());
        let rng = &mut StdRng::seed_from_u64(case ^ 0xD1FF);
        for _ in 0..4 {
            let params = gen::draw_params(rng, &slots);
            let txn = e.begin().unwrap();
            verdicts += usize::from(execute_checked(&e, txn, DB, &sql, &params).is_ok());
            e.abort(txn).unwrap();
        }
    }
    // The generator must not have degenerated into scans or type errors.
    assert!(indexed > 150, "only {indexed} of 600 plans chose an index");
    assert!(
        verdicts > 1200,
        "only {verdicts} of 2400 runs evaluated cleanly"
    );
}

/// (a') The same for the shapes an ordered walk may answer, and their
/// near-misses: whatever the planner made of the ORDER BY — a walk that
/// stops at LIMIT, or a sort — the forced-scan, forced-sort reference
/// returns the same rows in the same order.
#[test]
fn ordered_walks_match_their_sorted_reference() {
    let e = engine();
    let (mut verdicts, mut ordered, mut stopped) = (0, 0, 0);
    for case in 0..600 {
        let rng = &mut StdRng::seed_from_u64(case ^ 0x0DE2);
        let (stmt, slots) = gen::ordered(rng, &vocab(), "id", &["a", "s", "id"], ("t_id", "id"));
        let sql = stmt.to_string();
        let bound = plan(&e, DB, &parse(&sql).unwrap())
            .unwrap_or_else(|err| panic!("case {case}: {sql}: {err}"));
        let explained = bound.explain(&e).unwrap();
        ordered += usize::from(explained.contains("ordered"));
        stopped += usize::from(explained.contains("stops at LIMIT"));
        for _ in 0..4 {
            let params = gen::draw_params(rng, &slots);
            let txn = e.begin().unwrap();
            verdicts += usize::from(execute_checked(&e, txn, DB, &sql, &params).is_ok());
            e.abort(txn).unwrap();
        }
    }
    assert!(ordered > 150, "only {ordered} of 600 plans walk in order");
    assert!(stopped > 100, "only {stopped} of 600 plans stop at LIMIT");
    assert!(
        ordered < 450,
        "near-misses must keep their sort ({ordered})"
    );
    assert!(
        verdicts > 1800,
        "only {verdicts} of 2400 runs evaluated cleanly"
    );
}

/// (a'') Grouped queries, mostly ranked by an aggregate under a small LIMIT
/// that cuts through ties, with HAVING, DISTINCT, NULL keys and a FLOAT key
/// holding `1` and `1.0`: the chosen plan, its forced-scan version and the
/// naive reference agree.
#[test]
fn grouped_queries_match_the_naive_reference() {
    let e = engine();
    let rows = |sql: &str| {
        let txn = e.begin().unwrap();
        let r = execute_checked(&e, txn, DB, sql, &[]).unwrap();
        e.commit(txn).unwrap();
        r.rows
    };
    // `1` and `1.0` are one group, keyed by whichever came first.
    let ones = rows("SELECT f, COUNT(*) FROM g WHERE f = 1 GROUP BY f");
    assert_eq!(ones.len(), 1, "{ones:?}");
    let (mut verdicts, mut ranked) = (0, 0);
    for case in 0..600 {
        let rng = &mut StdRng::seed_from_u64(case ^ 0x6E0B);
        let (stmt, slots) = gen::grouped(rng, &grouped_vocab());
        let sql = stmt.to_string();
        let bound = plan(&e, DB, &parse(&sql).unwrap())
            .unwrap_or_else(|err| panic!("case {case}: {sql}: {err}"));
        ranked += usize::from(bound.explain(&e).unwrap().contains(", top "));
        for _ in 0..4 {
            let params = gen::draw_params(rng, &slots);
            let txn = e.begin().unwrap();
            verdicts += usize::from(execute_checked(&e, txn, DB, &sql, &params).is_ok());
            e.abort(txn).unwrap();
        }
    }
    assert!(ranked > 250, "only {ranked} of 600 plans keep a top LIMIT");
    assert!(
        verdicts > 1800,
        "only {verdicts} of 2400 runs evaluated cleanly"
    );
}

/// (a''') WHERE predicates of every shape the executor's predicate
/// evaluator decides in place — NULL on either side of AND / OR / NOT,
/// INT against FLOAT columns, TEXT comparisons, IN lists holding NULL, LIKE
/// with a NULL or parameter pattern — over `t` (TEXT) and `g` (FLOAT):
/// the executor keeps exactly the rows `eval` keeps and fails where it
/// fails (`common::naive`), and the chosen plan agrees with both.
#[test]
fn predicates_match_the_naive_reference() {
    let e = engine();
    let (mut verdicts, mut shapes) = (0, [0; 5]);
    for case in 0..800 {
        let rng = &mut StdRng::seed_from_u64(case ^ 0x9E3D);
        let vocab = if case % 2 == 0 {
            vocab()
        } else {
            grouped_vocab()
        };
        let (stmt, slots) = gen::select(rng, &vocab, Some(("t_id", "id")));
        let sql = stmt.to_string();
        let filter = sql.split(" WHERE ").nth(1).unwrap_or_default();
        for (n, shape) in shapes.iter_mut().zip([
            filter.contains("NULL AND") || filter.contains("AND NULL"),
            filter.contains("NULL OR") || filter.contains("OR NULL") || filter.contains("NOT NULL"),
            filter.contains("f ") && !filter.contains("IS NULL"),
            filter.contains(", NULL") || filter.contains("(NULL"),
            filter.contains("LIKE"),
        ]) {
            *n += usize::from(shape);
        }
        for _ in 0..4 {
            let params = gen::draw_params(rng, &slots);
            let txn = e.begin().unwrap();
            verdicts += usize::from(execute_checked(&e, txn, DB, &sql, &params).is_ok());
            e.abort(txn).unwrap();
        }
    }
    // Each shape is drawn often enough to mean something.
    assert!(shapes.iter().all(|&n| n > 30), "shapes drawn: {shapes:?}");
    assert!(
        verdicts > 1400,
        "only {verdicts} of 3200 runs evaluated cleanly"
    );
}

/// The eligibility rule, case by case, as `Plan::explain` tells it.
#[test]
fn the_planner_orders_what_it_may_and_nothing_else() {
    let e = engine();
    let explain = |sql: &str| {
        plan(&e, DB, &parse(sql).unwrap())
            .unwrap()
            .explain(&e)
            .unwrap()
    };
    for (sql, expected) in [
        // Equality on an index: its postings are in primary-key order.
        (
            "SELECT s FROM t WHERE a = ? ORDER BY id DESC LIMIT 1",
            "t: index by_a = (?1), ordered desc by id, stops at LIMIT 1\n",
        ),
        (
            "SELECT id AS k FROM t WHERE s = 's1' AND b > 2 ORDER BY k",
            "t: index by_s = ('s1'), ordered asc by k\n",
        ),
        // The equality-bound column may be named, anywhere.
        (
            "SELECT * FROM t WHERE a = 3 ORDER BY id, a LIMIT 2 FOR UPDATE",
            "t: index by_a = (3), for update, ordered asc by id, a, stops at LIMIT 2\n",
        ),
        // A range: the column, closed by the primary key unless it is one.
        (
            "SELECT id FROM t WHERE id >= ? AND id < ? ORDER BY id DESC LIMIT 3",
            "t: index pk in [?1, ?2], ordered desc by id, stops at LIMIT 3\n",
        ),
        (
            "SELECT id FROM t WHERE a > 4 ORDER BY a, id",
            "t: index by_a in [4, +inf], ordered asc by a, id\n",
        ),
        // No usable predicate: the primary-key index, if LIMIT cuts it.
        (
            "SELECT id FROM t WHERE b = 1 ORDER BY id LIMIT 4",
            "t: index pk, whole, ordered asc by id, stops at LIMIT 4\n",
        ),
        ("SELECT id FROM t ORDER BY id", "t: scan, sort id\n"),
        // Near-misses: ties possible; not the index's order; mixed ways.
        (
            "SELECT id FROM t WHERE a > 4 ORDER BY a LIMIT 1",
            "t: index by_a in [4, +inf], top 1 by a\n",
        ),
        (
            "SELECT id FROM t WHERE a = 4 ORDER BY b, id LIMIT 1",
            "t: index by_a = (4), top 1 by b, id\n",
        ),
        (
            "SELECT id FROM t WHERE a > 4 ORDER BY a, id DESC LIMIT 1",
            "t: index by_a in [4, +inf], top 1 by a, id desc\n",
        ),
        (
            "SELECT id + 0 AS id FROM t WHERE a = 4 ORDER BY id LIMIT 1",
            "t: index by_a = (4), top 1 by id\n",
        ),
        // GROUP BY and joins rank, keeping the top LIMIT; DISTINCT sorts all.
        (
            "SELECT id, COUNT(*) FROM t WHERE a = 4 GROUP BY id ORDER BY id LIMIT 1",
            "t: index by_a = (4), grouped, top 1 by id\n",
        ),
        (
            "SELECT DISTINCT id FROM t WHERE a = 4 ORDER BY id LIMIT 1",
            "t: index by_a = (4), sort id, distinct, limit 1\n",
        ),
        (
            "SELECT t.id FROM t JOIN u ON u.t_id = t.id WHERE t.a = 4 ORDER BY id LIMIT 1",
            "t: index by_a = (4)\nu: join, index by_t = (t.id)\nresult: top 1 by id\n",
        ),
        (
            "SELECT u.v FROM t LEFT JOIN u ON u.v > t.b WHERE u.t_id = 4",
            "t: scan\nu: left join, nested loop over scan\n",
        ),
        // Writes have an access path too.
        (
            "UPDATE t SET b = 0 WHERE a = ? AND b = 1",
            "t: index by_a = (?1)\n",
        ),
        ("DELETE FROM u WHERE id > 5", "u: index pk in [5, +inf]\n"),
    ] {
        assert_eq!(explain(sql), expected, "{sql}");
    }
}

/// (b) One plan value, a thousand parameter draws: each answers exactly
/// like a plan bound for that draw alone (same rows, same order).
#[test]
fn a_reused_plan_answers_like_a_fresh_one() {
    let e = engine();
    // Statements with at least one `?`, the first few the generator yields.
    let cases = (0..).filter(|&c| !statement(c).1.is_empty()).take(12);
    for case in cases {
        let (sql, slots) = statement(case);
        let stmt = parse(&sql).unwrap();
        let reused = plan(&e, DB, &stmt).unwrap();
        let rng = &mut StdRng::seed_from_u64(case ^ 0xCAFE);
        for draw in 0..1000 {
            let params = gen::draw_params(rng, &slots);
            let txn = e.begin().unwrap();
            let got = run(&e, txn, &reused, &params);
            e.abort(txn).unwrap();
            let txn = e.begin().unwrap();
            let fresh = run(&e, txn, &plan(&e, DB, &stmt).unwrap(), &params);
            e.abort(txn).unwrap();
            assert_eq!(got, fresh, "case {case}, draw {draw}: {sql} {params:?}");
        }
    }
}

/// NULL keys and empty ranges, spelled out: the template's access path is
/// chosen without looking at the values, and the values cannot break it.
#[test]
fn null_keys_and_empty_ranges() {
    let e = engine();
    let rows = |sql: &str, params: &[Value]| {
        let txn = e.begin().unwrap();
        let r = execute_checked(&e, txn, DB, sql, params).unwrap();
        e.commit(txn).unwrap();
        r.rows
    };
    use Value::{Int, Null};
    let empty = |sql: &str, params: &[Value]| assert!(rows(sql, params).is_empty(), "{sql}");
    empty("SELECT id FROM t WHERE id = ?", &[Null]);
    empty("SELECT id FROM t WHERE a = ?", &[Null]);
    empty("SELECT id FROM t WHERE a = ? AND b = ?", &[Int(3), Null]);
    empty("SELECT id FROM t WHERE id > ?", &[Null]);
    empty("SELECT id FROM t WHERE id >= ? AND id < ?", &[Null, Int(5)]);
    empty(
        "SELECT id FROM t WHERE id >= ? AND id < ?",
        &[Int(9), Int(3)],
    );
    let two = |sql: &str, params: &[Value]| assert_eq!(rows(sql, params).len(), 2, "{sql}");
    two(
        "SELECT id FROM t WHERE id >= ? AND id >= ? AND id < ?",
        &[Int(2), Int(7), Int(9)],
    );
    two("SELECT id FROM t WHERE ? <= id AND 9 > id", &[Int(7)]);
    // The join key of an index nested-loop join can be NULL too.
    rows("SELECT t.id, u.id FROM u JOIN t ON t.id = u.t_id", &[]);
    rows(
        "SELECT t.id, u.id FROM u LEFT JOIN t ON t.a = u.t_id AND t.b = ?",
        &[Null],
    );
}

/// A plan is refused, not misapplied, on a table that is not the one it
/// was bound against: same name, other columns or other indexes.
#[test]
fn a_plan_is_refused_on_a_recreated_table() {
    let e = engine();
    let sql = "SELECT s FROM t WHERE a = ?";
    let bound = plan(&e, DB, &parse(sql).unwrap()).unwrap();
    let run_it = |e: &Engine| {
        let txn = e.begin().unwrap();
        let r = run(e, txn, &bound, &[Value::Int(3)]);
        e.abort(txn).unwrap();
        r
    };
    let before = run_it(&e).unwrap();

    // More indexes on the same table: still the table the plan knows.
    let txn = e.begin().unwrap();
    execute(&e, txn, DB, "CREATE INDEX by_b ON t (b)", &[]).unwrap();
    e.commit(txn).unwrap();
    assert_eq!(run_it(&e).unwrap(), before);

    for ddl in [
        // Another column order.
        "CREATE TABLE t (s TEXT, a INT, id INT NOT NULL, b INT, PRIMARY KEY (id))",
        // The same columns, but index #1 is no longer `by_a`.
        "CREATE TABLE t (id INT NOT NULL, a INT, b INT, s TEXT, PRIMARY KEY (id))",
    ] {
        let other = Engine::new(EngineConfig::for_tests());
        other.create_database(DB).unwrap();
        let txn = other.begin().unwrap();
        execute(&other, txn, DB, ddl, &[]).unwrap();
        execute(&other, txn, DB, "CREATE INDEX by_s ON t (s)", &[]).unwrap();
        other.commit(txn).unwrap();
        let err = run_it(&other).unwrap_err();
        assert!(
            matches!(&err, SqlError::Plan(m) if m.contains("stale plan")),
            "{err}"
        );
    }
}
