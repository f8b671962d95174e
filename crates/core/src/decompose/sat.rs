//! The Appendix hardness construction: REGDECOMP is coNP-hard.
//!
//! Theorem 1 reduces 3SAT to the question "can flow table T be decomposed
//! into a single regular table?": given a 3-CNF formula, a flow table is
//! built with one column per variable plus an extra column Y, and one row per
//! clause (action `false`) plus a catch-all (action `true`). For any
//! assignment X and Y = 1 the table evaluates ¬f(X) — the i-th row matches
//! exactly when the i-th clause is unsatisfied — so the formula is
//! unsatisfiable iff the table is equivalent to the single regular table
//! `{Y=1 → false, * → true}`.
//!
//! This module implements the construction and the evaluation machinery so
//! the tests (and the EXPERIMENTS.md write-up) can demonstrate the reduction
//! on satisfiable and unsatisfiable instances.

use openflow::field::Field;
use openflow::flow_match::FlowMatch;
use openflow::instruction::terminal_actions;
use openflow::{Action, FlowEntry, FlowTable};

/// A literal: variable index plus polarity (`true` = positive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Literal {
    /// Variable index, 0-based.
    pub variable: usize,
    /// True for a positive (un-negated) literal.
    pub positive: bool,
}

/// A 3SAT clause (up to three literals; fewer are allowed for convenience).
pub type Clause = Vec<Literal>;

/// A 3SAT instance in conjunctive normal form.
#[derive(Debug, Clone, Default)]
pub struct ThreeSat {
    /// Number of variables.
    pub variables: usize,
    /// The clauses.
    pub clauses: Vec<Clause>,
}

impl ThreeSat {
    /// Evaluates the formula under `assignment` (indexed by variable).
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|lit| assignment[lit.variable] == lit.positive)
        })
    }

    /// Exhaustively checks satisfiability (instances used in tests are tiny).
    pub fn is_satisfiable(&self) -> bool {
        let n = self.variables;
        (0..(1u64 << n)).any(|bits| {
            let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            self.evaluate(&assignment)
        })
    }
}

/// Action port encoding the boolean outputs of the constructed table.
pub const OUTPUT_FALSE: u32 = 0;
/// Action port encoding `true`.
pub const OUTPUT_TRUE: u32 = 1;

/// Fields used for the variable columns, in order. The construction needs one
/// column per variable plus the Y column; the concrete field identities are
/// irrelevant, so the first few single-byte-ish fields are used.
fn variable_field(index: usize) -> Field {
    // Distinct fields for up to 8 variables — ample for the demonstrations.
    const FIELDS: [Field; 8] = [
        Field::TcpSrc,
        Field::TcpDst,
        Field::Ipv4Src,
        Field::Ipv4Dst,
        Field::EthSrc,
        Field::EthDst,
        Field::IpDscp,
        Field::IpProto,
    ];
    FIELDS[index]
}

/// The extra Y column of the construction.
pub const Y_FIELD: Field = Field::VlanVid;

/// Builds the flow table T of Theorem 1 for a 3SAT instance.
///
/// Row i matches `X_j = 0` for positive occurrences, `X_j = 1` for negative
/// occurrences, wildcards absent variables, pins `Y = 1`, and outputs
/// [`OUTPUT_FALSE`]; a final catch-all outputs [`OUTPUT_TRUE`].
pub fn build_reduction_table(instance: &ThreeSat) -> FlowTable {
    assert!(
        instance.variables <= 8,
        "demonstration construction supports up to 8 variables"
    );
    let mut table = FlowTable::named(0, "regdecomp-reduction");
    let rows = instance.clauses.len() as u16;
    for (i, clause) in instance.clauses.iter().enumerate() {
        let mut m = FlowMatch::any().with_exact(Y_FIELD, 1);
        for lit in clause {
            // Positive literal -> the row requires X_j = 0 (clause violated).
            let required = if lit.positive { 0u128 } else { 1u128 };
            m = m.with_exact(variable_field(lit.variable), required);
        }
        table.insert(FlowEntry::new(
            m,
            100 + (rows - i as u16),
            terminal_actions(vec![Action::Output(OUTPUT_FALSE)]),
        ));
    }
    table.insert(FlowEntry::new(
        FlowMatch::any(),
        1,
        terminal_actions(vec![Action::Output(OUTPUT_TRUE)]),
    ));
    table
}

/// The single regular table `{Y=1 → false, * → true}` the reduction compares
/// against: T decomposes into it iff the 3SAT instance is unsatisfiable.
pub fn regular_candidate() -> FlowTable {
    let mut table = FlowTable::named(0, "regdecomp-candidate");
    table.insert(FlowEntry::new(
        FlowMatch::any().with_exact(Y_FIELD, 1),
        10,
        terminal_actions(vec![Action::Output(OUTPUT_FALSE)]),
    ));
    table.insert(FlowEntry::new(
        FlowMatch::any(),
        1,
        terminal_actions(vec![Action::Output(OUTPUT_TRUE)]),
    ));
    table
}

/// Evaluates a table on an assignment: builds the corresponding flow key
/// (X values in the variable columns, Y = 1) and returns the boolean output.
pub fn table_output(table: &FlowTable, instance: &ThreeSat, assignment: &[bool], y: bool) -> bool {
    let mut key = openflow::FlowKey::default();
    key.set(Y_FIELD, u128::from(y));
    for (i, value) in assignment.iter().enumerate().take(instance.variables) {
        key.set(variable_field(i), u128::from(*value));
    }
    // Populate protocol presence so the fields read back (the key here is
    // synthetic; only field values matter for the reduction).
    key.ip_proto = Some(6);
    key.tcp_src = key.tcp_src.or(Some(0));
    key.tcp_dst = key.tcp_dst.or(Some(0));
    key.ipv4_src = key.ipv4_src.or(Some(0));
    key.ipv4_dst = key.ipv4_dst.or(Some(0));
    key.ip_dscp = key.ip_dscp.or(Some(0));
    match table.scan(&key, &mut ()).0 {
        Some(entry) => entry
            .instructions
            .iter()
            .any(|i| matches!(i, openflow::Instruction::ApplyActions(a) if a.contains(&Action::Output(OUTPUT_TRUE)))),
        None => false,
    }
}

/// True when the reduction table and the single regular candidate agree on
/// every assignment (with Y = 1 and Y = 0) — i.e. when T is decomposable into
/// one regular table. By Theorem 1 this holds iff the instance is
/// unsatisfiable.
pub fn decomposes_to_single_regular_table(instance: &ThreeSat) -> bool {
    let table = build_reduction_table(instance);
    let candidate = regular_candidate();
    let n = instance.variables;
    for bits in 0..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
        for y in [false, true] {
            if table_output(&table, instance, &assignment, y)
                != table_output(&candidate, instance, &assignment, y)
            {
                return false;
            }
        }
    }
    true
}

/// The example instance of the Appendix:
/// `(X1 ∨ ¬X3 ∨ X4) ∧ (¬X1 ∨ X2 ∨ X3)` — satisfiable.
pub fn appendix_example() -> ThreeSat {
    ThreeSat {
        variables: 4,
        clauses: vec![
            vec![
                Literal {
                    variable: 0,
                    positive: true,
                },
                Literal {
                    variable: 2,
                    positive: false,
                },
                Literal {
                    variable: 3,
                    positive: true,
                },
            ],
            vec![
                Literal {
                    variable: 0,
                    positive: false,
                },
                Literal {
                    variable: 1,
                    positive: true,
                },
                Literal {
                    variable: 2,
                    positive: true,
                },
            ],
        ],
    }
}

/// A small unsatisfiable instance: all eight sign patterns over three
/// variables (every assignment violates exactly one clause).
pub fn unsatisfiable_example() -> ThreeSat {
    let mut clauses = Vec::new();
    for bits in 0..8u8 {
        clauses.push(
            (0..3)
                .map(|v| Literal {
                    variable: v,
                    positive: bits & (1 << v) != 0,
                })
                .collect(),
        );
    }
    ThreeSat {
        variables: 3,
        clauses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appendix_example_matches_paper_table() {
        let instance = appendix_example();
        assert!(instance.is_satisfiable());
        let table = build_reduction_table(&instance);
        // Two clause rows plus the catch-all.
        assert_eq!(table.len(), 3);
        // The first row pins X1=0, X3=1, X4=0, Y=1 as in the paper's example.
        let row = &table.entries()[0];
        assert_eq!(row.flow_match.field(variable_field(0)).unwrap().value, 0);
        assert_eq!(row.flow_match.field(variable_field(2)).unwrap().value, 1);
        assert_eq!(row.flow_match.field(variable_field(3)).unwrap().value, 0);
        assert_eq!(row.flow_match.field(Y_FIELD).unwrap().value, 1);
    }

    #[test]
    fn table_evaluates_negated_formula() {
        let instance = appendix_example();
        let table = build_reduction_table(&instance);
        let n = instance.variables;
        for bits in 0..(1u64 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            // With Y=1 the table outputs f(X).
            assert_eq!(
                table_output(&table, &instance, &assignment, true),
                instance.evaluate(&assignment),
                "assignment {assignment:?}"
            );
            // With Y=0 no clause row can match: always true.
            assert!(table_output(&table, &instance, &assignment, false));
        }
    }

    #[test]
    fn satisfiable_instance_is_not_single_table_decomposable() {
        let instance = appendix_example();
        assert!(instance.is_satisfiable());
        assert!(!decomposes_to_single_regular_table(&instance));
    }

    #[test]
    fn unsatisfiable_instance_is_single_table_decomposable() {
        let instance = unsatisfiable_example();
        assert!(!instance.is_satisfiable());
        assert!(decomposes_to_single_regular_table(&instance));
    }

    #[test]
    fn satisfiability_oracle_sanity() {
        let trivially_sat = ThreeSat {
            variables: 1,
            clauses: vec![vec![Literal {
                variable: 0,
                positive: true,
            }]],
        };
        assert!(trivially_sat.is_satisfiable());
        let contradiction = ThreeSat {
            variables: 1,
            clauses: vec![
                vec![Literal {
                    variable: 0,
                    positive: true,
                }],
                vec![Literal {
                    variable: 0,
                    positive: false,
                }],
            ],
        };
        assert!(!contradiction.is_satisfiable());
    }
}
