//! OpenFlow instructions.

use crate::action::Action;
use crate::pipeline::TableId;

/// An instruction attached to a flow entry.
///
/// Instructions control what happens when an entry matches: actions can be
/// applied immediately, merged into the packet's action set for execution at
/// pipeline exit, the metadata register can be rewritten, and processing can
/// be directed to a later table (`goto_table`), which is what builds
/// multi-stage pipelines (Fig. 1b of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Apply the listed actions immediately, in order.
    ApplyActions(Vec<Action>),
    /// Merge the listed actions into the action set.
    WriteActions(Vec<Action>),
    /// Clear the action set.
    ClearActions,
    /// `metadata = (metadata & !mask) | (value & mask)`.
    WriteMetadata {
        /// Value to write.
        value: u64,
        /// Bits of the metadata register affected.
        mask: u64,
    },
    /// Continue processing at the given (strictly later) table.
    GotoTable(TableId),
    /// Attach a meter (modelled as a no-op; none of the use cases meter).
    Meter(u32),
}

impl Instruction {
    /// Convenience constructor: apply a single action.
    pub fn apply(action: Action) -> Self {
        Instruction::ApplyActions(vec![action])
    }

    /// Convenience constructor: write a single action into the action set.
    pub fn write(action: Action) -> Self {
        Instruction::WriteActions(vec![action])
    }

    /// The goto target, if this is a goto-table instruction.
    pub fn goto_target(&self) -> Option<TableId> {
        match self {
            Instruction::GotoTable(t) => Some(*t),
            _ => None,
        }
    }
}

/// Helper: builds the common "apply these actions and stop" instruction list.
pub fn terminal_actions(actions: Vec<Action>) -> Vec<Instruction> {
    vec![Instruction::ApplyActions(actions)]
}

/// Helper: builds the common "apply these actions, then continue at `table`"
/// instruction list.
pub fn actions_then_goto(actions: Vec<Action>, table: TableId) -> Vec<Instruction> {
    vec![
        Instruction::ApplyActions(actions),
        Instruction::GotoTable(table),
    ]
}

/// Bitmask (by [`Field::index`](crate::Field::index)) of the match-relevant fields these
/// instructions can rewrite *while the packet is still traversing the
/// pipeline*. Write-actions are excluded: they execute at pipeline exit,
/// after every table lookup, so they can never change what a later table
/// matches. Each [`FlowTable`](crate::FlowTable) keeps the union over its
/// entries, which the goto-graph gate
/// ([`Pipeline::fields_written_upstream`](crate::Pipeline::fields_written_upstream))
/// reads.
pub fn written_match_fields(instructions: &[Instruction]) -> u64 {
    use crate::field::Field;
    let mut bits = 0u64;
    let mut mark = |f: Field| bits |= 1u64 << f.index();
    for instruction in instructions {
        match instruction {
            Instruction::ApplyActions(actions) => {
                for action in actions {
                    match action {
                        Action::SetField(f, _) => mark(*f),
                        Action::PushVlan(_) | Action::PopVlan => {
                            mark(Field::VlanVid);
                            mark(Field::VlanPcp);
                        }
                        // NAT/LB rewrite addresses and ports mid-pipeline;
                        // which of TCP/UDP depends on the packet, so both
                        // port families are marked conservatively.
                        Action::Ct(crate::ct::CtVerb::Nat(_))
                        | Action::Ct(crate::ct::CtVerb::Lb { .. }) => {
                            mark(Field::Ipv4Src);
                            mark(Field::Ipv4Dst);
                            mark(Field::TcpSrc);
                            mark(Field::TcpDst);
                            mark(Field::UdpSrc);
                            mark(Field::UdpDst);
                        }
                        // DecNwTtl touches no matchable field (TTL is not a
                        // modelled match field); Commit/Established rewrite
                        // nothing.
                        _ => {}
                    }
                }
            }
            Instruction::WriteMetadata { .. } => mark(crate::field::Field::Metadata),
            _ => {}
        }
    }
    bits
}

/// True when these instructions can punt a packet to the controller (an
/// explicit [`Action::ToController`] in an apply- or write-actions list).
/// Runtimes use this to decide whether a flow-mod can introduce punting into
/// a previously punt-free pipeline; the answer is consumed as a monotone OR,
/// so a deleted punt action merely leaves the runtime conservatively
/// prepared for punts that never come.
pub fn instructions_can_punt(instructions: &[Instruction]) -> bool {
    instructions.iter().any(|instruction| match instruction {
        Instruction::ApplyActions(actions) | Instruction::WriteActions(actions) => {
            actions.iter().any(|a| matches!(a, Action::ToController))
        }
        _ => false,
    })
}

/// True when these instructions contain a connection-tracking action (in
/// apply- or write-actions position; write-position ct is a no-op but still
/// marks the pipeline as stateful for configuration validation).
pub fn instructions_have_ct(instructions: &[Instruction]) -> bool {
    instructions.iter().any(|instruction| match instruction {
        Instruction::ApplyActions(actions) | Instruction::WriteActions(actions) => {
            actions.iter().any(|a| matches!(a, Action::Ct(_)))
        }
        _ => false,
    })
}

/// True when any entry of the pipeline carries a ct action. Runtimes use
/// this to switch on stateful behaviour: symmetric RSS (both directions of
/// a connection must land on the same shard) and per-shard engine setup.
pub fn pipeline_has_ct(pipeline: &crate::pipeline::Pipeline) -> bool {
    pipeline
        .tables()
        .iter()
        .flat_map(|t| t.entries())
        .any(|e| instructions_have_ct(&e.instructions))
}

/// True when any path through the pipeline can punt a packet to the
/// controller: a table whose miss behaviour is
/// [`TableMissBehavior::ToController`](crate::table::TableMissBehavior), or
/// any entry with an explicit output-to-controller action. Runtimes that must
/// preserve the *ingress* frame for packet-ins consult this to skip the
/// per-burst frame snapshot entirely on purely proactive pipelines.
pub fn pipeline_can_punt(pipeline: &crate::pipeline::Pipeline) -> bool {
    pipeline.tables().iter().any(|t| {
        t.miss == crate::table::TableMissBehavior::ToController
            || t.entries()
                .iter()
                .any(|e| instructions_can_punt(&e.instructions))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goto_target_extraction() {
        assert_eq!(Instruction::GotoTable(7).goto_target(), Some(7));
        assert_eq!(Instruction::ClearActions.goto_target(), None);
    }

    #[test]
    fn helpers_build_expected_lists() {
        let t = terminal_actions(vec![Action::Output(1)]);
        assert_eq!(t, vec![Instruction::ApplyActions(vec![Action::Output(1)])]);
        let g = actions_then_goto(vec![Action::PopVlan], 3);
        assert_eq!(g.len(), 2);
        assert_eq!(g[1], Instruction::GotoTable(3));
    }
}
