//! Training-information extraction: AST → tunable [`Schema`].
//!
//! The paper's compiler emits a *training information file* describing
//! "all the logical constructs in the configuration file" (§5.3); the
//! tuner generates its mutator pool from it. Here the static analysis
//! walks the checked AST and produces a [`pb_config::Schema`] directly:
//!
//! * each `accuracy_variable` → an accuracy-variable tunable;
//! * each datum with multiple producing rules → a `rule_<Data>`
//!   choice site;
//! * each `for_enough` loop → a `for_enough_<i>` accuracy variable;
//! * each `either…or` statement → an `either_<i>` choice site;
//! * each plain call to another declared variable-accuracy transform →
//!   that transform's tunables, merged with a `<callee>.` prefix
//!   (this is the flattening equivalent of the paper's automatic
//!   sub-accuracy expansion, §3.2/§4.2: the tuner becomes free to pick
//!   the sub-accuracy).

use crate::ast::{Expr, Program, Stmt, Transform};
use crate::cdg::ChoiceDependencyGraph;
use pb_config::Schema;
use std::collections::HashSet;

/// Maximum sub-transform flattening depth.
const MAX_DEPTH: usize = 4;

/// Extracts the tunable schema for `transform_name`.
///
/// # Panics
///
/// Panics if the transform does not exist (run
/// [`crate::check_program`] first).
pub fn extract_schema(program: &Program, transform_name: &str) -> Schema {
    let t = program
        .transform(transform_name)
        .unwrap_or_else(|| panic!("unknown transform `{transform_name}`"));
    let mut schema = Schema::new(transform_name);
    let mut visiting = HashSet::new();
    add_transform_tunables(program, t, "", &mut schema, &mut visiting, 0);
    schema
}

fn add_transform_tunables(
    program: &Program,
    t: &Transform,
    prefix: &str,
    schema: &mut Schema,
    visiting: &mut HashSet<String>,
    depth: usize,
) {
    if depth > MAX_DEPTH || !visiting.insert(t.name.clone()) {
        return;
    }

    for av in &t.accuracy_variables {
        schema.add_accuracy_variable(format!("{prefix}{}", av.name), av.min, av.max);
    }

    // `scaled_by` inputs get a percentage accuracy variable (§3.2:
    // "the size to re-sample to is controlled with an accuracy
    // variable in the generated transform"). 100% = no resampling.
    for p in &t.inputs {
        if p.scaled_by.is_some() {
            schema.add_accuracy_variable_with_default(
                format!("{prefix}scale_{}", p.name),
                1,
                100,
                100,
            );
        }
    }

    let graph = ChoiceDependencyGraph::build(t);
    for site in graph.choice_sites() {
        schema.add_choice_site(format!("{prefix}rule_{site}"), graph.producers(site).len());
    }

    let mut callees: Vec<&str> = Vec::new();
    for rule in &t.rules {
        rule.body.for_each_stmt(&mut |stmt| {
            match stmt {
                Stmt::ForEnough { id, .. } => {
                    let name = format!("{prefix}for_enough_{id}");
                    if schema.tunable(&name).is_none() {
                        schema.add_accuracy_variable(name, 1, 500);
                    }
                }
                Stmt::Either { id, branches, .. } => {
                    let name = format!("{prefix}either_{id}");
                    if schema.tunable(&name).is_none() {
                        schema.add_choice_site(name, branches.len());
                    }
                }
                _ => {}
            }
            // A plain call to a declared transform exposes the callee's
            // tunables; an explicit-accuracy call pins them (§3.2: the
            // `<N>` syntax "may … be used … to prevent the automatic
            // expansion").
            stmt.for_each_expr(&mut |expr| match expr {
                Expr::Call {
                    name,
                    accuracy: None,
                    ..
                } if program.transform(name).is_some() && !callees.contains(&name.as_str()) => {
                    callees.push(name);
                }
                _ => {}
            });
        });
    }
    for callee in callees {
        if let Some(sub) = program.transform(callee) {
            let sub_prefix = format!("{prefix}{callee}.");
            add_transform_tunables(program, sub, &sub_prefix, schema, visiting, depth + 1);
        }
    }
    visiting.remove(&t.name);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use pb_config::TunableKind;

    #[test]
    fn kmeans_schema_has_expected_tunables() {
        let program = parse_program(crate::parser::tests::KMEANS).unwrap();
        let schema = extract_schema(&program, "kmeans");
        // k, rule_Centroids (2 rules), for_enough_0.
        let (_, k) = schema.tunable("k").unwrap();
        assert!(matches!(
            k.kind(),
            TunableKind::AccuracyVariable { min: 1, max: 4096 }
        ));
        let (_, site) = schema.tunable("rule_Centroids").unwrap();
        assert!(matches!(
            site.kind(),
            TunableKind::ChoiceSite { num_algorithms: 2 }
        ));
        assert!(schema.tunable("for_enough_0").is_some());
        assert_eq!(schema.len(), 3);
    }

    #[test]
    fn either_or_becomes_choice_site() {
        let src = r#"
            transform t from A[n] to B[n] {
                to (B b) from (A a) {
                    either { b[0] = 1; } or { b[0] = 2; } or { b[0] = 3; }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = extract_schema(&program, "t");
        let (_, e) = schema.tunable("either_0").unwrap();
        assert!(matches!(
            e.kind(),
            TunableKind::ChoiceSite { num_algorithms: 3 }
        ));
    }

    #[test]
    fn sub_transform_tunables_are_prefixed() {
        let src = r#"
            transform outer from A[n] to B[n] {
                to (B b) from (A a) {
                    b[0] = inner(a);
                }
            }
            transform inner
            accuracy_variable iters 1 50
            from A[n] to R {
                to (R r) from (A a) {
                    for_enough { r = r + 1; }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = extract_schema(&program, "outer");
        assert!(schema.tunable("inner.iters").is_some());
        assert!(schema.tunable("inner.for_enough_0").is_some());
    }

    #[test]
    fn explicit_accuracy_call_is_not_expanded() {
        let src = r#"
            transform outer from A[n] to B[n] {
                to (B b) from (A a) {
                    b[0] = inner<0.5>(a);
                }
            }
            transform inner
            accuracy_variable iters 1 50
            from A[n] to R {
                to (R r) from (A a) { r = 1; }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = extract_schema(&program, "outer");
        assert!(schema.tunable("inner.iters").is_none());
        assert!(schema.is_empty());
    }

    #[test]
    fn recursive_calls_do_not_loop_forever() {
        let src = r#"
            transform t accuracy_variable v 1 9 from A[n] to B[n] {
                to (B b) from (A a) {
                    b[0] = t(a);
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let schema = extract_schema(&program, "t");
        // Only the transform's own tunable — no infinite expansion.
        assert!(schema.tunable("v").is_some());
        assert!(schema.tunable("t.v").is_none());
    }
}
