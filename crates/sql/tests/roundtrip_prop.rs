//! Property test: printing any generated statement yields SQL that reparses
//! to the same printed form (print ∘ parse is a fixpoint on printer output).
//! This pins the parser's precedence, quoting, and keyword handling against
//! the serializer. Seeded (`compat-rand`), so it runs offline and in CI; a
//! failure names its case number.

mod common;

use common::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tenantdb_sql::parse;

const CASES: u64 = 512;

/// `print(parse(printed)) == printed`, for the `case`-th generated text.
fn assert_fixpoint(case: u64, printed: &str) {
    let reparsed = parse(printed).unwrap_or_else(|e| {
        panic!("case {case}: printer produced unparseable SQL: {printed}\n{e}")
    });
    assert_eq!(reparsed.to_string(), printed, "case {case}");
}

#[test]
fn printed_select_reparses_to_fixpoint() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let vocab = gen::random_vocab(rng);
        let (left, right) = (vocab[0].1[0].0.clone(), vocab[1].1[0].0.clone());
        let (stmt, _) = gen::select(rng, &vocab, Some((&right, &left)));
        assert_fixpoint(case, &stmt.to_string());
    }
}

#[test]
fn printed_update_and_delete_reparse_to_fixpoint() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let vocab = gen::random_vocab(rng);
        let settable: Vec<&str> = vocab[0].1.iter().map(|c| c.0.as_str()).collect();
        let (stmt, _) = gen::write(rng, &vocab, &settable);
        assert_fixpoint(case, &stmt.to_string());
    }
}

#[test]
fn printed_expr_roundtrips_inside_where() {
    for case in 0..CASES {
        let e = gen::expr(&mut StdRng::seed_from_u64(case), 4);
        let sql = format!("SELECT x FROM t WHERE {e}");
        let parsed =
            parse(&sql).unwrap_or_else(|err| panic!("case {case}: unparseable: {sql}\n{err}"));
        assert_fixpoint(case, &parsed.to_string());
    }
}
