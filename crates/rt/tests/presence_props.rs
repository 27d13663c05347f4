//! Property tests for the per-device presence table: random
//! enter/exit/finish/clear sequences driven in lockstep against a naive
//! reference model of the table's observable behaviour. In
//! debug builds every [`PresenceTable`] mutation is *also* cross-checked
//! against its `spread-semantics` spec mirror internally, so each
//! random step is validated twice — once against the reference model
//! here, once against the operational semantics inside the table.

use spread_devices::MemoryPool;
use spread_prng::Prng;
use spread_rt::mapping::{EnterDecision, EntryKey, ExitDecision, MapConflict, PresenceTable};
use spread_rt::{ArrayId, Section};

/// The table's observable state, re-implemented as naively as
/// possible: a flat vector and linear scans.
#[derive(Default, Clone)]
struct RefModel {
    entries: Vec<RefEntry>,
}

#[derive(Clone, Debug, PartialEq)]
struct RefEntry {
    section: Section,
    refcount: u32,
    dying: bool,
}

#[derive(Debug, PartialEq)]
enum RefDecision {
    Reuse,
    Fresh,
    Keep,
    LastRef,
    Extension(Section),
    NotMapped,
}

impl RefModel {
    fn enter(&mut self, s: Section) -> RefDecision {
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| !e.dying && e.section.contains(&s))
        {
            e.refcount += 1;
            return RefDecision::Reuse;
        }
        if let Some(e) = self.entries.iter().find(|e| e.section.overlaps(&s)) {
            return RefDecision::Extension(e.section);
        }
        self.entries.push(RefEntry {
            section: s,
            refcount: 1,
            dying: false,
        });
        RefDecision::Fresh
    }

    fn exit(&mut self, s: &Section, force_delete: bool) -> RefDecision {
        let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| !e.dying && e.section.contains(s))
        else {
            return RefDecision::NotMapped;
        };
        if force_delete {
            e.refcount = 0;
        } else {
            e.refcount -= 1;
        }
        if e.refcount == 0 {
            e.dying = true;
            RefDecision::LastRef
        } else {
            RefDecision::Keep
        }
    }

    /// Finish the dying entry covering `s` (if it survived a clear).
    fn finish(&mut self, s: &Section) -> bool {
        let Some(i) = self.entries.iter().position(|e| e.dying && e.section == *s) else {
            return false;
        };
        self.entries.remove(i);
        true
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    /// Canonical fingerprint for whole-state comparison.
    fn snapshot(&self) -> Vec<(u32, usize, usize, u32, bool)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .map(|e| {
                (
                    e.section.array.0,
                    e.section.start,
                    e.section.len,
                    e.refcount,
                    e.dying,
                )
            })
            .collect();
        v.sort();
        v
    }
}

fn table_snapshot(t: &PresenceTable) -> Vec<(u32, usize, usize, u32, bool)> {
    let mut v: Vec<_> = t
        .iter()
        .map(|(_, e)| {
            (
                e.section.array.0,
                e.section.start,
                e.section.len,
                e.refcount,
                e.dying,
            )
        })
        .collect();
    v.sort();
    v
}

fn random_section(rng: &mut Prng) -> Section {
    let array = ArrayId(rng.below(2) as u32);
    let start = rng.range(0, 40);
    let len = rng.range(1, 12);
    Section::new(array, start, len)
}

/// A dying entry whose release transfer is still "in flight". `wiped`
/// marks entries destroyed by a device-loss [`PresenceTable::clear`]
/// before the transfer landed — their late completion must be a no-op.
struct Pending {
    key: EntryKey,
    section: Section,
    wiped: bool,
}

/// One random op against one (table, model) pair.
fn step(
    rng: &mut Prng,
    t: &mut PresenceTable,
    m: &mut RefModel,
    pool: &mut MemoryPool,
    pending: &mut Vec<Pending>,
) {
    match rng.below(10) {
        // Enter: the commonest op.
        0..=4 => {
            let s = random_section(rng);
            let got = t.begin_enter(s);
            let want = m.enter(s);
            match (got, want) {
                (Ok(EnterDecision::Reuse(_)), RefDecision::Reuse) => {}
                (Ok(EnterDecision::Fresh), RefDecision::Fresh) => {
                    let a = pool.alloc(s.len as u64 * 8).unwrap();
                    t.insert_fresh(s, a);
                }
                (Err(MapConflict::Extension { present }), RefDecision::Extension(p)) => {
                    assert_eq!(present, p, "extension blamed a different entry for {s}");
                }
                (got, want) => panic!("enter {s}: table {got:?} vs reference {want:?}"),
            }
        }
        // Exit, sometimes with delete semantics.
        5..=7 => {
            let s = random_section(rng);
            let force = rng.chance(0.2);
            let got = t.begin_exit(&s, force);
            let want = m.exit(&s, force);
            match (got, want) {
                (Ok(ExitDecision::Keep(_)), RefDecision::Keep) => {}
                (Ok(ExitDecision::LastRef(key)), RefDecision::LastRef) => {
                    pending.push(Pending {
                        key,
                        section: t.entry(key).unwrap().section,
                        wiped: false,
                    });
                }
                (Err(MapConflict::NotMapped), RefDecision::NotMapped) => {}
                (got, want) => panic!("exit {s}: table {got:?} vs reference {want:?}"),
            }
        }
        // A release transfer completes.
        8 => {
            if !pending.is_empty() {
                let i = rng.range(0, pending.len());
                let p = pending.swap_remove(i);
                finish_one(t, m, p);
            }
        }
        // Device-loss wipe (rare). In-flight releases stay pending and
        // must later finish as harmless no-ops on both sides.
        _ => {
            if rng.chance(0.15) {
                t.clear();
                m.clear();
                for p in pending.iter_mut() {
                    p.wiped = true;
                }
            }
        }
    }
    assert_eq!(
        table_snapshot(t),
        m.snapshot(),
        "table state diverged from the reference model"
    );
}

/// Complete one in-flight release on both sides and check they agree.
fn finish_one(t: &mut PresenceTable, m: &mut RefModel, p: Pending) {
    let freed = t.finish_exit(p.key);
    if p.wiped {
        assert!(
            freed.is_none(),
            "finish_exit of {} after a wipe must be a no-op",
            p.section
        );
    } else {
        assert!(
            freed.is_some(),
            "finish_exit of {} lost a live dying entry",
            p.section
        );
        assert!(m.finish(&p.section), "reference lost {}", p.section);
    }
}

#[test]
fn random_sequences_match_the_reference_model() {
    for seed in 0..200u64 {
        let mut rng = Prng::new(0xbeef ^ seed);
        let mut t = PresenceTable::new();
        let mut m = RefModel::default();
        let mut pool = MemoryPool::new(1 << 24);
        let mut pending = Vec::new();
        for _ in 0..300 {
            step(&mut rng, &mut t, &mut m, &mut pool, &mut pending);
        }
        // Drain what's still in flight; the two sides must agree on
        // which entries survived to be freed.
        for p in pending.drain(..) {
            finish_one(&mut t, &mut m, p);
        }
        t.debug_validate();
    }
}
