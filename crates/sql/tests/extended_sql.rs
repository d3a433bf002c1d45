//! Tests for the extended dialect: DISTINCT, HAVING, LEFT JOIN, and scalar
//! functions. Every statement also runs its plan's forced-scan reference
//! and must agree with it (`common::execute_checked`).

mod common;

use common::execute_checked as execute;
use tenantdb_storage::{Engine, EngineConfig, Value};

fn setup() -> Engine {
    let e = Engine::new(EngineConfig::for_tests());
    e.create_database("db").unwrap();
    let txn = e.begin().unwrap();
    let run = |sql: &str| {
        execute(&e, txn, "db", sql, &[]).unwrap();
    };
    run("CREATE TABLE dept (id INT NOT NULL, name TEXT, PRIMARY KEY (id))");
    run("CREATE TABLE emp (id INT NOT NULL, dept_id INT, name TEXT, salary INT, PRIMARY KEY (id))");
    run("CREATE INDEX by_dept ON emp (dept_id)");
    run("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')");
    run(
        "INSERT INTO emp VALUES (10, 1, 'Ada', 120), (11, 1, 'Grace', 130), \
         (12, 2, 'Bob', 80), (13, 2, 'Carol', 90), (14, 2, 'Dan', 85)",
    );
    e.commit(txn).unwrap();
    e
}

fn q(e: &Engine, sql: &str, params: &[Value]) -> Vec<Vec<Value>> {
    let txn = e.begin().unwrap();
    let r = execute(e, txn, "db", sql, params).unwrap();
    e.commit(txn).unwrap();
    r.rows
}

#[test]
fn distinct_removes_duplicates() {
    let e = setup();
    let rows = q(&e, "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id", &[]);
    assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    // Without DISTINCT there are five rows.
    let rows = q(&e, "SELECT dept_id FROM emp", &[]);
    assert_eq!(rows.len(), 5);
}

#[test]
fn distinct_applies_before_limit() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id LIMIT 1",
        &[],
    );
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn having_filters_groups() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT dept_id, COUNT(*) AS n FROM emp GROUP BY dept_id HAVING COUNT(*) > 2",
        &[],
    );
    assert_eq!(rows, vec![vec![Value::Int(2), Value::Int(3)]]);
}

#[test]
fn having_with_aggregate_expression() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT dept_id, AVG(salary) AS a FROM emp GROUP BY dept_id HAVING AVG(salary) >= 100 \
         ORDER BY dept_id",
        &[],
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(1));
    assert_eq!(rows[0][1], Value::Float(125.0));
}

#[test]
fn having_without_group_by_is_an_error() {
    let e = setup();
    let txn = e.begin().unwrap();
    let err = execute(&e, txn, "db", "SELECT id FROM emp HAVING id > 1", &[]).unwrap_err();
    assert!(matches!(err, tenantdb_sql::SqlError::Plan(_)));
    e.abort(txn).unwrap();
}

#[test]
fn left_join_pads_unmatched_rows() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_id = d.id ORDER BY d.id, e.id",
        &[],
    );
    assert_eq!(rows.len(), 6, "5 matches + 1 padded row for 'empty'");
    let empty_row = rows.iter().find(|r| r[0] == Value::from("empty")).unwrap();
    assert_eq!(empty_row[1], Value::Null);
}

#[test]
fn left_join_aggregate_counts_zero_for_empty_dept() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT d.name, COUNT(e.id) AS n FROM dept d LEFT JOIN emp e ON e.dept_id = d.id \
         GROUP BY d.name ORDER BY d.name",
        &[],
    );
    assert_eq!(
        rows,
        vec![
            vec![Value::from("empty"), Value::Int(0)],
            vec![Value::from("eng"), Value::Int(2)],
            vec![Value::from("sales"), Value::Int(3)],
        ]
    );
}

#[test]
fn inner_join_unaffected_by_left_join_support() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT d.name, e.name FROM dept d JOIN emp e ON e.dept_id = d.id",
        &[],
    );
    assert_eq!(rows.len(), 5);
    assert!(rows.iter().all(|r| r[1] != Value::Null));
}

#[test]
fn coalesce_picks_first_non_null() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT d.name, COALESCE(e.name, 'nobody') FROM dept d \
         LEFT JOIN emp e ON e.dept_id = d.id WHERE d.id = 3",
        &[],
    );
    assert_eq!(
        rows,
        vec![vec![Value::from("empty"), Value::from("nobody")]]
    );
}

#[test]
fn scalar_string_functions() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT UPPER(name), LOWER(name), LENGTH(name), SUBSTR(name, 1, 2) \
         FROM emp WHERE id = 10",
        &[],
    );
    assert_eq!(
        rows[0],
        vec![
            Value::from("ADA"),
            Value::from("ada"),
            Value::Int(3),
            Value::from("Ad")
        ]
    );
}

#[test]
fn abs_function() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT ABS(0 - salary), ABS(salary) FROM emp WHERE id = 12",
        &[],
    );
    assert_eq!(rows[0], vec![Value::Int(80), Value::Int(80)]);
}

#[test]
fn substr_without_length_and_null_propagation() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT SUBSTR(name, 2), SUBSTR(NULL, 1) FROM emp WHERE id = 11",
        &[],
    );
    assert_eq!(rows[0], vec![Value::from("race"), Value::Null]);
}

#[test]
fn functions_in_where_and_order_by() {
    let e = setup();
    let rows = q(
        &e,
        "SELECT name FROM emp WHERE LENGTH(name) <= 3 ORDER BY LOWER(name)",
        &[],
    );
    assert_eq!(
        rows,
        vec![
            vec![Value::from("Ada")],
            vec![Value::from("Bob")],
            vec![Value::from("Dan")]
        ]
    );
}

#[test]
fn distinct_star_over_join() {
    let e = setup();
    // Duplicate-producing join collapsed by DISTINCT on a projected column.
    let rows = q(
        &e,
        "SELECT DISTINCT d.name FROM dept d JOIN emp e ON e.dept_id = d.id ORDER BY d.name",
        &[],
    );
    assert_eq!(
        rows,
        vec![vec![Value::from("eng")], vec![Value::from("sales")]]
    );
}

#[test]
fn left_join_with_where_on_left_table() {
    let e = setup();
    // WHERE on the left side composes with LEFT JOIN padding.
    let rows = q(
        &e,
        "SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_id = d.id \
         WHERE d.id >= 2 ORDER BY d.id, e.id",
        &[],
    );
    assert_eq!(rows.len(), 4); // 3 sales matches + empty padded
}
