//! Flow-mod handling: the controller-to-switch messages that install, modify
//! and delete flow entries.

use std::fmt;

use crate::entry::FlowEntry;
use crate::flow_match::FlowMatch;
use crate::instruction::Instruction;
use crate::pipeline::{Pipeline, PipelineError, TableId};

/// The flow-mod command (OpenFlow `ofp_flow_mod_command`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowModCommand {
    /// Install a new entry (replacing an identical match+priority entry).
    Add,
    /// Modify the instructions of all entries overlapping the match.
    Modify,
    /// Modify the instructions of the entry with exactly this match+priority.
    ModifyStrict,
    /// Delete all entries overlapping the match (optionally cookie-filtered).
    Delete,
    /// Delete the entry with exactly this match+priority.
    DeleteStrict,
}

/// A flow-mod message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowMod {
    /// Command.
    pub command: FlowModCommand,
    /// Target table. `None` with a delete command means "all tables".
    pub table_id: Option<TableId>,
    /// Match of the affected entries.
    pub flow_match: FlowMatch,
    /// Priority (meaningful for Add and the strict commands).
    pub priority: u16,
    /// New instructions (Add/Modify commands).
    pub instructions: Vec<Instruction>,
    /// Cookie attached to added entries / used to filter deletes.
    pub cookie: Option<u64>,
}

impl FlowMod {
    /// Convenience constructor for an Add.
    pub fn add(
        table_id: TableId,
        flow_match: FlowMatch,
        priority: u16,
        instructions: Vec<Instruction>,
    ) -> Self {
        FlowMod {
            command: FlowModCommand::Add,
            table_id: Some(table_id),
            flow_match,
            priority,
            instructions,
            cookie: None,
        }
    }

    /// Convenience constructor for a strict delete.
    pub fn delete_strict(table_id: TableId, flow_match: FlowMatch, priority: u16) -> Self {
        FlowMod {
            command: FlowModCommand::DeleteStrict,
            table_id: Some(table_id),
            flow_match,
            priority,
            instructions: Vec::new(),
            cookie: None,
        }
    }

    /// Convenience constructor for a non-strict delete over one table
    /// (an empty match deletes everything in the table).
    pub fn delete(table_id: TableId, flow_match: FlowMatch) -> Self {
        FlowMod {
            command: FlowModCommand::Delete,
            table_id: Some(table_id),
            flow_match,
            priority: 0,
            instructions: Vec::new(),
            cookie: None,
        }
    }

    /// Builder-style cookie setter.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = Some(cookie);
        self
    }
}

/// Errors raised while applying a flow-mod to a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowModError {
    /// Add/Modify targeted a table id that is required but missing
    /// (Adds create tables implicitly; strict modifies do not).
    NoSuchTable(TableId),
    /// A strict modify/delete matched no entry.
    NoSuchEntry,
    /// Add/Modify without a table id.
    TableRequired,
    /// Add/Modify instructions with a goto to the same table, an earlier
    /// one, or one that does not exist: every packet matching the entry would
    /// loop or dangle.
    BadGoto(PipelineError),
}

impl fmt::Display for FlowModError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowModError::NoSuchTable(t) => write!(f, "no such table {t}"),
            FlowModError::NoSuchEntry => write!(f, "no matching entry"),
            FlowModError::TableRequired => write!(f, "flow-mod requires a table id"),
            FlowModError::BadGoto(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FlowModError {}

/// Summary of what a flow-mod changed, returned so datapaths layered on top
/// of the pipeline (flow caches, compiled templates) know what to invalidate
/// or recompile.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowModEffect {
    /// Tables whose entry list changed.
    pub tables_touched: Vec<TableId>,
    /// Number of entries added.
    pub added: usize,
    /// Number of entries modified in place.
    pub modified: usize,
    /// Number of entries removed.
    pub removed: usize,
    /// The matches of every entry added, modified or removed — the delta a
    /// layered datapath needs for selective invalidation: only packets
    /// matching one of these can see a different verdict after the change.
    pub touched_matches: Vec<FlowMatch>,
    /// True when an Add created its table. That is structural — a
    /// `Continue` miss of the table before it now lands in the new table —
    /// and no list of touched matches describes it.
    pub table_created: bool,
}

impl FlowModEffect {
    /// Total entries the flow-mod touched (the "size" of the update).
    pub fn entries_touched(&self) -> u64 {
        (self.added + self.modified + self.removed) as u64
    }
}

/// One inverse operation recorded while applying a flow-mod.
#[derive(Debug, Clone)]
enum UndoOp {
    /// Remove the entry with this exact match+priority (inverse of an add).
    RemoveStrict {
        table: TableId,
        flow_match: FlowMatch,
        priority: u16,
    },
    /// Re-insert a displaced or pre-modification entry, which replaces the
    /// entry of identical match and priority in place.
    Insert { table: TableId, entry: FlowEntry },
    /// Put deleted entries back at the positions they held.
    Restore {
        table: TableId,
        removed: Vec<(usize, FlowEntry)>,
    },
    /// Remove a table the flow-mod implicitly created.
    RemoveTable(TableId),
}

/// Undo log of one applied flow-mod: replaying it restores the pipeline to
/// its pre-flow-mod state. Built from the entries the operation displaced
/// anyway, so the success path never clones a table or the pipeline — the
/// expensive work happens only if a caller actually rolls back (§3.4's
/// transactional updates).
#[derive(Debug, Clone, Default)]
pub struct FlowModUndo {
    ops: Vec<UndoOp>,
}

impl FlowModUndo {
    /// Reverts the recorded flow-mod on `pipeline`.
    pub fn undo(self, pipeline: &mut Pipeline) {
        for op in self.ops {
            match op {
                UndoOp::RemoveStrict {
                    table,
                    flow_match,
                    priority,
                } => {
                    if let Some(t) = pipeline.table_mut(table) {
                        t.remove_strict(&flow_match, priority);
                    }
                }
                UndoOp::Insert { table, entry } => {
                    pipeline.table_mut_or_create(table).insert(entry);
                }
                UndoOp::Restore { table, removed } => {
                    pipeline.table_mut_or_create(table).restore(removed);
                }
                UndoOp::RemoveTable(id) => {
                    pipeline.remove_table(id);
                }
            }
        }
    }
}

/// Applies a flow-mod to a pipeline.
pub fn apply_flow_mod(
    pipeline: &mut Pipeline,
    fm: &FlowMod,
) -> Result<FlowModEffect, FlowModError> {
    apply_flow_mod_undoable(pipeline, fm).map(|(effect, _)| effect)
}

/// Refuses instructions bound for `table` whose gotos do not name an
/// existing, strictly later table. Checked before anything is mutated, so a
/// refused flow-mod leaves the pipeline as it was.
fn check_gotos(
    pipeline: &Pipeline,
    table: TableId,
    instructions: &[Instruction],
) -> Result<(), FlowModError> {
    for to in instructions.iter().filter_map(Instruction::goto_target) {
        if to <= table {
            return Err(FlowModError::BadGoto(PipelineError::BackwardGoto {
                from: table,
                to,
            }));
        }
        if pipeline.table(to).is_none() {
            return Err(FlowModError::BadGoto(PipelineError::NoSuchTable(to)));
        }
    }
    Ok(())
}

/// Applies a flow-mod and returns, alongside the effect, an undo log that
/// restores the pre-flow-mod pipeline — without any up-front clone.
pub fn apply_flow_mod_undoable(
    pipeline: &mut Pipeline,
    fm: &FlowMod,
) -> Result<(FlowModEffect, FlowModUndo), FlowModError> {
    let mut undo = FlowModUndo::default();
    match fm.command {
        FlowModCommand::Add => {
            let table_id = fm.table_id.ok_or(FlowModError::TableRequired)?;
            check_gotos(pipeline, table_id, &fm.instructions)?;
            let created = pipeline.table(table_id).is_none();
            let table = pipeline.table_mut_or_create(table_id);
            let mut entry =
                FlowEntry::new(fm.flow_match.clone(), fm.priority, fm.instructions.clone());
            if let Some(cookie) = fm.cookie {
                entry = entry.with_cookie(cookie);
            }
            let displaced = table.insert(entry);
            if created {
                undo.ops.push(UndoOp::RemoveTable(table_id));
            } else if let Some(old) = displaced {
                // Re-inserting the displaced entry replaces the new one
                // (identical match + priority): a one-op undo.
                undo.ops.push(UndoOp::Insert {
                    table: table_id,
                    entry: old,
                });
            } else {
                undo.ops.push(UndoOp::RemoveStrict {
                    table: table_id,
                    flow_match: fm.flow_match.clone(),
                    priority: fm.priority,
                });
            }
            Ok((
                FlowModEffect {
                    tables_touched: vec![table_id],
                    added: 1,
                    touched_matches: vec![fm.flow_match.clone()],
                    table_created: created,
                    ..FlowModEffect::default()
                },
                undo,
            ))
        }
        FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
            let table_id = fm.table_id.ok_or(FlowModError::TableRequired)?;
            let strict = fm.command == FlowModCommand::ModifyStrict;
            check_gotos(pipeline, table_id, &fm.instructions)?;
            let table = pipeline
                .table_mut(table_id)
                .ok_or(FlowModError::NoSuchTable(table_id))?;
            let mut modified = 0;
            let mut touched_matches = Vec::new();
            let existing = table.entries().to_vec();
            let mut replacement = Vec::with_capacity(existing.len());
            for mut e in existing {
                let hit = if strict {
                    e.priority == fm.priority && e.flow_match == fm.flow_match
                } else {
                    e.flow_match.is_more_specific_than(&fm.flow_match)
                        && fm.cookie.map(|c| e.cookie == c).unwrap_or(true)
                };
                if hit {
                    undo.ops.push(UndoOp::Insert {
                        table: table_id,
                        entry: e.clone(),
                    });
                    touched_matches.push(e.flow_match.clone());
                    e.instructions = fm.instructions.clone();
                    modified += 1;
                }
                replacement.push(e);
            }
            if modified == 0 && strict {
                return Err(FlowModError::NoSuchEntry);
            }
            table.set_entries(replacement);
            Ok((
                FlowModEffect {
                    tables_touched: vec![table_id],
                    modified,
                    touched_matches,
                    ..FlowModEffect::default()
                },
                undo,
            ))
        }
        FlowModCommand::Delete => {
            let mut touched = Vec::new();
            let mut removed = 0;
            let mut touched_matches = Vec::new();
            let target_tables: Vec<TableId> = match fm.table_id {
                Some(id) => vec![id],
                None => pipeline.tables().iter().map(|t| t.id).collect(),
            };
            for id in target_tables {
                if let Some(table) = pipeline.table_mut(id) {
                    let gone = table.remove_overlapping(&fm.flow_match, fm.cookie);
                    if !gone.is_empty() {
                        touched.push(id);
                        removed += gone.len();
                        touched_matches.extend(gone.iter().map(|(_, e)| e.flow_match.clone()));
                        undo.ops.push(UndoOp::Restore {
                            table: id,
                            removed: gone,
                        });
                    }
                }
            }
            Ok((
                FlowModEffect {
                    tables_touched: touched,
                    removed,
                    touched_matches,
                    ..FlowModEffect::default()
                },
                undo,
            ))
        }
        FlowModCommand::DeleteStrict => {
            let table_id = fm.table_id.ok_or(FlowModError::TableRequired)?;
            let table = pipeline
                .table_mut(table_id)
                .ok_or(FlowModError::NoSuchTable(table_id))?;
            match table.remove_strict(&fm.flow_match, fm.priority) {
                Some((pos, entry)) => {
                    let touched_matches = vec![entry.flow_match.clone()];
                    undo.ops.push(UndoOp::Restore {
                        table: table_id,
                        removed: vec![(pos, entry)],
                    });
                    Ok((
                        FlowModEffect {
                            tables_touched: vec![table_id],
                            removed: 1,
                            touched_matches,
                            ..FlowModEffect::default()
                        },
                        undo,
                    ))
                }
                None => Err(FlowModError::NoSuchEntry),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::field::Field;
    use crate::instruction::terminal_actions;

    fn add(port: u16, priority: u16, out: u32) -> FlowMod {
        FlowMod::add(
            0,
            FlowMatch::any().with_exact(Field::TcpDst, u128::from(port)),
            priority,
            terminal_actions(vec![Action::Output(out)]),
        )
    }

    #[test]
    fn add_creates_table_and_entry() {
        let mut p = Pipeline::new();
        let effect = apply_flow_mod(&mut p, &add(80, 10, 1)).unwrap();
        assert_eq!(effect.added, 1);
        assert_eq!(p.table(0).unwrap().len(), 1);
        // Adding the same match+priority replaces.
        apply_flow_mod(&mut p, &add(80, 10, 2)).unwrap();
        assert_eq!(p.table(0).unwrap().len(), 1);
        assert_eq!(
            p.table(0).unwrap().entries()[0].instructions,
            terminal_actions(vec![Action::Output(2)])
        );
    }

    #[test]
    fn strict_modify_and_delete() {
        let mut p = Pipeline::new();
        apply_flow_mod(&mut p, &add(80, 10, 1)).unwrap();
        apply_flow_mod(&mut p, &add(443, 10, 2)).unwrap();

        let modify = FlowMod {
            command: FlowModCommand::ModifyStrict,
            table_id: Some(0),
            flow_match: FlowMatch::any().with_exact(Field::TcpDst, 80),
            priority: 10,
            instructions: terminal_actions(vec![Action::Output(9)]),
            cookie: None,
        };
        let effect = apply_flow_mod(&mut p, &modify).unwrap();
        assert_eq!(effect.modified, 1);

        let missing = FlowMod {
            priority: 99,
            ..modify.clone()
        };
        assert_eq!(
            apply_flow_mod(&mut p, &missing),
            Err(FlowModError::NoSuchEntry)
        );

        let del = FlowMod::delete_strict(0, FlowMatch::any().with_exact(Field::TcpDst, 443), 10);
        assert_eq!(apply_flow_mod(&mut p, &del).unwrap().removed, 1);
        assert_eq!(p.table(0).unwrap().len(), 1);
    }

    #[test]
    fn delete_all_tables_with_none_table_id() {
        let mut p = Pipeline::new();
        apply_flow_mod(&mut p, &add(80, 10, 1)).unwrap();
        let mut fm = add(22, 10, 1);
        fm.table_id = Some(3);
        apply_flow_mod(&mut p, &fm).unwrap();

        let wipe = FlowMod {
            command: FlowModCommand::Delete,
            table_id: None,
            flow_match: FlowMatch::any(),
            priority: 0,
            instructions: vec![],
            cookie: None,
        };
        let effect = apply_flow_mod(&mut p, &wipe).unwrap();
        assert_eq!(effect.removed, 2);
        assert_eq!(effect.tables_touched.len(), 2);
        assert_eq!(p.entry_count(), 0);
    }

    #[test]
    fn cookie_filtered_delete() {
        let mut p = Pipeline::new();
        apply_flow_mod(&mut p, &add(80, 10, 1).with_cookie(0xaa)).unwrap();
        apply_flow_mod(&mut p, &add(443, 10, 1).with_cookie(0xbb)).unwrap();
        let del = FlowMod::delete(0, FlowMatch::any()).with_cookie(0xaa);
        assert_eq!(apply_flow_mod(&mut p, &del).unwrap().removed, 1);
        assert_eq!(p.table(0).unwrap().entries()[0].cookie, 0xbb);
    }

    #[test]
    fn undo_restores_pipeline_without_upfront_clone() {
        let mut p = Pipeline::new();
        apply_flow_mod(&mut p, &add(80, 10, 1)).unwrap();
        apply_flow_mod(&mut p, &add(443, 10, 2)).unwrap();
        let reference = p.clone();

        // Add that replaces an existing entry: undo restores the old actions.
        let (effect, undo) = apply_flow_mod_undoable(&mut p, &add(80, 10, 9)).unwrap();
        assert_eq!(effect.touched_matches.len(), 1);
        undo.undo(&mut p);
        assert_eq!(
            p.table(0).unwrap().entries(),
            reference.table(0).unwrap().entries()
        );

        // Add that creates a table: undo removes the table again.
        let mut fm = add(22, 10, 1);
        fm.table_id = Some(7);
        let (_, undo) = apply_flow_mod_undoable(&mut p, &fm).unwrap();
        assert!(p.table(7).is_some());
        undo.undo(&mut p);
        assert!(p.table(7).is_none());

        // Wildcard delete: undo reinstates every removed entry.
        let wipe = FlowMod::delete(0, FlowMatch::any());
        let (effect, undo) = apply_flow_mod_undoable(&mut p, &wipe).unwrap();
        assert_eq!(effect.removed, 2);
        assert_eq!(effect.touched_matches.len(), 2);
        assert_eq!(p.entry_count(), 0);
        undo.undo(&mut p);
        assert_eq!(
            p.table(0).unwrap().entries(),
            reference.table(0).unwrap().entries()
        );

        // Strict modify: undo restores the original instructions.
        let modify = FlowMod {
            command: FlowModCommand::ModifyStrict,
            table_id: Some(0),
            flow_match: FlowMatch::any().with_exact(Field::TcpDst, 80),
            priority: 10,
            instructions: terminal_actions(vec![Action::Output(5)]),
            cookie: None,
        };
        let (_, undo) = apply_flow_mod_undoable(&mut p, &modify).unwrap();
        undo.undo(&mut p);
        assert_eq!(
            p.table(0).unwrap().entries(),
            reference.table(0).unwrap().entries()
        );
    }

    #[test]
    fn undone_delete_restores_the_order_of_equal_priorities() {
        // At one priority, the port-80 rule wins port-80 packets only while
        // it stays ahead of the catch-all.
        let port80 = FlowMatch::any().with_exact(Field::TcpDst, 80);
        for fm in [
            FlowMod::delete(0, port80.clone()),
            FlowMod::delete_strict(0, port80.clone(), 10),
        ] {
            let mut p = Pipeline::new();
            apply_flow_mod(&mut p, &add(80, 10, 1)).unwrap();
            let catch_all = terminal_actions(vec![Action::Output(9)]);
            apply_flow_mod(&mut p, &FlowMod::add(0, FlowMatch::any(), 10, catch_all)).unwrap();
            let before = p.table(0).unwrap().entries().to_vec();
            let (_, undo) = apply_flow_mod_undoable(&mut p, &fm).unwrap();
            undo.undo(&mut p);
            assert_eq!(
                p.table(0).unwrap().entries(),
                &before[..],
                "{:?}",
                fm.command
            );
            let mut packet = pkt::builder::PacketBuilder::tcp().tcp_dst(80).build();
            let verdict = p.process_ct(&mut packet, &mut crate::ct::NoCt);
            assert_eq!(verdict.outputs, vec![1], "{:?}", fm.command);
        }
    }

    #[test]
    fn effect_reports_touched_matches() {
        let mut p = Pipeline::new();
        apply_flow_mod(&mut p, &add(80, 10, 1)).unwrap();
        let del = FlowMod::delete_strict(0, FlowMatch::any().with_exact(Field::TcpDst, 80), 10);
        let effect = apply_flow_mod(&mut p, &del).unwrap();
        assert_eq!(
            effect.touched_matches,
            vec![FlowMatch::any().with_exact(Field::TcpDst, 80)]
        );
        assert_eq!(effect.entries_touched(), 1);
    }

    #[test]
    fn bad_gotos_are_refused_before_anything_changes() {
        use crate::instruction::actions_then_goto;
        let mut p = Pipeline::with_tables(3);
        apply_flow_mod(&mut p, &add(80, 10, 1)).unwrap();
        let before: Vec<Vec<FlowEntry>> = p.tables().iter().map(|t| t.entries().to_vec()).collect();
        let goto = |from: TableId, to: TableId| {
            FlowMod::add(
                from,
                FlowMatch::any(),
                1,
                actions_then_goto(vec![Action::PopVlan], to),
            )
        };
        let refused = [
            (goto(1, 1), PipelineError::BackwardGoto { from: 1, to: 1 }),
            (goto(1, 0), PipelineError::BackwardGoto { from: 1, to: 0 }),
            (goto(1, 9), PipelineError::NoSuchTable(9)),
            // An Add that would create its own table checks before creating.
            (goto(7, 9), PipelineError::NoSuchTable(9)),
            (
                FlowMod {
                    command: FlowModCommand::Modify,
                    ..goto(0, 0)
                },
                PipelineError::BackwardGoto { from: 0, to: 0 },
            ),
        ];
        for (fm, want) in refused {
            assert_eq!(
                apply_flow_mod(&mut p, &fm),
                Err(FlowModError::BadGoto(want)),
                "{fm:?}"
            );
        }
        let after: Vec<Vec<FlowEntry>> = p.tables().iter().map(|t| t.entries().to_vec()).collect();
        assert_eq!(after, before);
        // A forward goto to an existing table is accepted.
        assert_eq!(apply_flow_mod(&mut p, &goto(1, 2)).unwrap().added, 1);
    }

    #[test]
    fn errors_on_missing_targets() {
        let mut p = Pipeline::new();
        let modify = FlowMod {
            command: FlowModCommand::Modify,
            table_id: Some(5),
            flow_match: FlowMatch::any(),
            priority: 0,
            instructions: vec![],
            cookie: None,
        };
        assert_eq!(
            apply_flow_mod(&mut p, &modify),
            Err(FlowModError::NoSuchTable(5))
        );
        let add_no_table = FlowMod {
            command: FlowModCommand::Add,
            table_id: None,
            flow_match: FlowMatch::any(),
            priority: 0,
            instructions: vec![],
            cookie: None,
        };
        assert_eq!(
            apply_flow_mod(&mut p, &add_no_table),
            Err(FlowModError::TableRequired)
        );
    }
}
