//! A datanode's part of a block write — §II steps 3–4 and §III-A step 3
//! — as one sans-IO machine, driven by the emulator's datanode threads
//! and by the DES's `Stored` and `AckDown` events. No I/O, no clock, no
//! allocation once warm.
//!
//! Decided here only: the tail checks checksums for the pipeline; an ack
//! goes upstream through seq `s` once this hop stored through `s` and
//! the mirror acked through `s` (in-order watermarks, cumulative acks),
//! a mirror's error at once; an ack's statuses are this hop's, then the
//! mirror's; at the last store the head sends the FNFA (SMARTH, once),
//! then `BlockReceived` is logged; the head reports `blockReceived`
//! before its last ack, the others after it (Hadoop 1.0.3's order).

use crate::config::WriteMode;
use crate::proto::AckStatus;

/// What the driver learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input<'a> {
    /// `intact`: the checksums hold, or this hop does not [`Hop::verifies`].
    Arrived { seq: u64, intact: bool },
    /// In the local store; the last packet finalized the replica.
    Stored { seq: u64, last: bool },
    StoreFailed { seq: u64 },
    /// Cumulative through `seq`; one status per hop behind this one.
    MirrorAck { seq: u64, statuses: &'a [AckStatus] },
    MirrorLost,
    /// The `blockReceived` report came back, either way.
    Reported,
}

/// What the driver does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Relay the packet to the mirror as it arrived.
    Forward,
    /// Queue the packet for the local store.
    Stage,
    /// With the statuses of [`Hop::statuses`].
    Ack(Ack),
    /// Refuse packet `seq` upstream with one `Error` status.
    Refuse { seq: u64 },
    /// FIRST_NODE_FINISH for the last packet, and log `FnfaSent`.
    Fnfa { seq: u64 },
    /// Log `BlockReceived`.
    Received,
    /// Report the replica. At the head, answer with [`Input::Reported`]:
    /// its last ack waits for it.
    Report,
}

/// Acks through `seq`, `batch` packets no ack covered before; `last`:
/// the block's last packet among them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub seq: u64,
    pub batch: u64,
    pub last: bool,
}

impl Ack {
    /// One ack for `self` and the `later` one.
    pub fn merge(self, later: Ack) -> Ack {
        let (seq, batch) = (self.seq.max(later.seq), self.batch + later.batch);
        Ack { seq, batch, last: self.last || later.last }
    }
}

/// What one input calls for, in order: at most three actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Actions([Option<Action>; 3]);

impl Actions {
    #[inline]
    fn push(&mut self, action: Action) {
        *self.0.iter_mut().find(|a| a.is_none()).expect("at most three") = Some(action);
    }

    /// For a driver whose acks go out from another thread: what this
    /// thread performs, and the first ack with what follows it, which
    /// the ack's sender performs.
    pub fn split_at_ack(self) -> (Actions, Actions) {
        let at = self.0.iter().position(|a| matches!(a, Some(Action::Ack(_)))).unwrap_or(3);
        let (mut mine, mut sender) = (self, Actions::default());
        sender.0[..3 - at].copy_from_slice(&self.0[at..]);
        mine.0[at..].fill(None);
        (mine, sender)
    }
}

impl IntoIterator for Actions {
    type Item = Action;
    type IntoIter =
        std::iter::MapWhile<std::array::IntoIter<Option<Action>, 3>, fn(Option<Action>) -> Option<Action>>;

    /// The actions fill the array from the front.
    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter().map_while(|a| a)
    }
}

/// One block at one pipeline position.
#[derive(Debug)]
pub struct Hop {
    head: bool,
    has_mirror: bool,
    smarth: bool,
    /// Highest seq stored here, acked by the mirror, acked upstream.
    stored: Option<u64>,
    mirror: Option<u64>,
    acked: Option<u64>,
    /// The first seq stored (a reopened pipeline numbers on) and the last.
    first: u64,
    last: Option<u64>,
    /// The head's report is out: its last ack waits.
    reporting: bool,
    /// Hops behind this one, as the mirror's latest ack counted them.
    behind: usize,
    /// The mirror's statuses once it failed: an error from it goes up at
    /// once, and no ack waits for the mirror's coverage again.
    mirror_failed: Option<Vec<AckStatus>>,
}

impl Hop {
    pub fn new(position: usize, has_mirror: bool, mode: WriteMode) -> Self {
        Hop {
            head: position == 0,
            has_mirror,
            smarth: mode == WriteMode::Smarth,
            stored: None,
            mirror: None,
            acked: None,
            first: 0,
            last: None,
            reporting: false,
            behind: 0,
            mirror_failed: None,
        }
    }

    /// The tail checks checksums, before the success ack chain starts.
    pub fn verifies(&self) -> bool {
        !self.has_mirror
    }

    /// Whether the next ack waits on the mirror's next one.
    pub fn awaits_mirror(&self) -> bool {
        self.has_mirror && self.mirror_failed.is_none() && self.mirror < self.stored
    }

    /// An ack's statuses: this hop's own, then the mirror's.
    pub fn statuses(&self, out: &mut Vec<AckStatus>) {
        out.clear();
        out.push(AckStatus::Success);
        match &self.mirror_failed {
            Some(statuses) => out.extend_from_slice(statuses),
            None => out.resize(1 + self.behind, AckStatus::Success),
        }
    }

    #[inline]
    pub fn on(&mut self, input: Input) -> Actions {
        let mut out = Actions::default();
        match input {
            Input::Arrived { seq, intact: false } | Input::StoreFailed { seq } => out.push(Action::Refuse { seq }),
            Input::Arrived { .. } => {
                if self.has_mirror {
                    out.push(Action::Forward);
                }
                out.push(Action::Stage);
            }
            Input::Stored { seq, last } => {
                debug_assert!(self.stored.is_none_or(|s| seq == s + 1), "stores come in order");
                if self.stored.is_none() {
                    self.first = seq;
                }
                self.stored = Some(seq);
                if last {
                    self.last = Some(seq);
                    if self.head && self.smarth {
                        out.push(Action::Fnfa { seq });
                    }
                    out.push(Action::Received);
                    if self.head {
                        self.reporting = true;
                        out.push(Action::Report);
                    }
                }
            }
            Input::MirrorAck { statuses, .. } if statuses.contains(&AckStatus::Error) => {
                self.mirror_failed.get_or_insert_with(|| statuses.to_vec());
            }
            Input::MirrorAck { seq, statuses } => {
                debug_assert!(self.mirror <= Some(seq), "mirror acks come in order");
                self.mirror = Some(seq);
                self.behind = statuses.len();
            }
            Input::MirrorLost => {
                self.mirror_failed.get_or_insert_with(|| vec![AckStatus::Error]);
            }
            Input::Reported => self.reporting = false,
        }
        self.ack_due(&mut out);
        out
    }

    /// Acks what is newly covered; behind the head the last ack brings
    /// the report.
    #[inline]
    fn ack_due(&mut self, out: &mut Actions) {
        let mut due = self.stored;
        if self.has_mirror && self.mirror_failed.is_none() {
            due = due.min(self.mirror);
        }
        if self.reporting && due == self.last {
            due = self.last.filter(|&l| l > self.first).map(|l| l - 1);
        }
        let Some(seq) = due.filter(|_| due > self.acked) else {
            return;
        };
        let batch = seq + 1 - self.acked.map_or(self.first, |a| a + 1);
        self.acked = due;
        let last = due == self.last;
        out.push(Action::Ack(Ack { seq, batch, last }));
        if last && !self.head {
            out.push(Action::Report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AckStatus::{Error as E, Success as S};
    use Action::{Fnfa, Forward, Received, Refuse, Report, Stage};
    use Input::{Arrived, MirrorAck, MirrorLost, Reported, StoreFailed, Stored};
    use WriteMode::{Hdfs, Smarth};

    const fn ack(seq: u64, batch: u64, last: bool) -> Action {
        Action::Ack(Ack { seq, batch, last })
    }

    /// One row: a hop, each input in turn with the actions it calls for,
    /// and the statuses of the hop's acks at the end.
    struct Case {
        name: &'static str,
        position: usize,
        mirror: bool,
        mode: WriteMode,
        script: &'static [(Input<'static>, &'static [Action])],
        statuses: &'static [AckStatus],
    }

    const CASES: &[Case] = &[
        Case {
            name: "tail, HDFS: every store acks, the report follows the last ack",
            position: 2,
            mirror: false,
            mode: Hdfs,
            script: &[
                (Stored { seq: 0, last: false }, &[ack(0, 1, false)]),
                (Stored { seq: 1, last: true }, &[Received, ack(1, 1, true), Report]),
                (Reported, &[]),
            ],
            statuses: &[S],
        },
        Case {
            name: "tail, SMARTH: no FNFA off the head",
            position: 2,
            mirror: false,
            mode: Smarth,
            script: &[(Stored { seq: 0, last: true }, &[Received, ack(0, 1, true), Report])],
            statuses: &[S],
        },
        Case {
            name: "lone head, SMARTH: FNFA, then the report, then the last ack",
            position: 0,
            mirror: false,
            mode: Smarth,
            script: &[
                (Stored { seq: 0, last: false }, &[ack(0, 1, false)]),
                (Stored { seq: 1, last: true }, &[Fnfa { seq: 1 }, Received, Report]),
                (Reported, &[ack(1, 1, true)]),
            ],
            statuses: &[S],
        },
        Case {
            name: "head, HDFS, mirror behind: no FNFA; acks wait for the mirror",
            position: 0,
            mirror: true,
            mode: Hdfs,
            script: &[
                (Stored { seq: 0, last: false }, &[]),
                (Stored { seq: 1, last: true }, &[Received, Report]),
                (MirrorAck { seq: 0, statuses: &[S, S] }, &[ack(0, 1, false)]),
                (Reported, &[]),
                (MirrorAck { seq: 1, statuses: &[S, S] }, &[ack(1, 1, true)]),
            ],
            statuses: &[S, S, S],
        },
        Case {
            name: "head, SMARTH, mirror ahead: the last ack waits for the report",
            position: 0,
            mirror: true,
            mode: Smarth,
            script: &[
                (MirrorAck { seq: 1, statuses: &[S, S] }, &[]),
                (Stored { seq: 0, last: false }, &[ack(0, 1, false)]),
                (Stored { seq: 1, last: true }, &[Fnfa { seq: 1 }, Received, Report]),
                (Reported, &[ack(1, 1, true)]),
            ],
            statuses: &[S, S, S],
        },
        Case {
            name: "middle, SMARTH, mirror behind: one ack covers both stores, then the report",
            position: 1,
            mirror: true,
            mode: Smarth,
            script: &[
                (Stored { seq: 0, last: false }, &[]),
                (Stored { seq: 1, last: true }, &[Received]),
                (MirrorAck { seq: 1, statuses: &[S] }, &[ack(1, 2, true), Report]),
            ],
            statuses: &[S, S],
        },
        Case {
            name: "middle, HDFS, mirror ahead: the store acks, then the report",
            position: 1,
            mirror: true,
            mode: Hdfs,
            script: &[
                (MirrorAck { seq: 0, statuses: &[S] }, &[]),
                (Stored { seq: 0, last: true }, &[Received, ack(0, 1, true), Report]),
            ],
            statuses: &[S, S],
        },
        Case {
            name: "middle: the mirror's error goes up at once, and with every later store",
            position: 1,
            mirror: true,
            mode: Smarth,
            script: &[
                (Stored { seq: 0, last: false }, &[]),
                (MirrorAck { seq: 0, statuses: &[E] }, &[ack(0, 1, false)]),
                (Stored { seq: 1, last: true }, &[Received, ack(1, 1, true), Report]),
            ],
            statuses: &[S, E],
        },
        Case {
            name: "head: a lost mirror is an error status behind this hop's own",
            position: 0,
            mirror: true,
            mode: Hdfs,
            script: &[
                (Stored { seq: 0, last: false }, &[]),
                (MirrorLost, &[ack(0, 1, false)]),
                (Stored { seq: 1, last: false }, &[ack(1, 1, false)]),
            ],
            statuses: &[S, E],
        },
        Case {
            name: "tail: a checksum failure is refused; nothing forwarded or staged",
            position: 1,
            mirror: false,
            mode: Smarth,
            script: &[
                (Arrived { seq: 0, intact: true }, &[Stage]),
                (Arrived { seq: 1, intact: false }, &[Refuse { seq: 1 }]),
            ],
            statuses: &[S],
        },
        Case {
            name: "middle: an arrival is forwarded before it is staged",
            position: 1,
            mirror: true,
            mode: Hdfs,
            script: &[(Arrived { seq: 0, intact: true }, &[Forward, Stage])],
            statuses: &[S],
        },
        Case {
            name: "a failed store is refused",
            position: 0,
            mirror: true,
            mode: Smarth,
            script: &[(StoreFailed { seq: 3 }, &[Refuse { seq: 3 }])],
            statuses: &[S],
        },
        Case {
            name: "a reopened pipeline numbers on from its first seq",
            position: 2,
            mirror: false,
            mode: Smarth,
            script: &[
                (Stored { seq: 5, last: false }, &[ack(5, 1, false)]),
                (Stored { seq: 6, last: true }, &[Received, ack(6, 1, true), Report]),
            ],
            statuses: &[S],
        },
    ];

    #[test]
    fn every_script_calls_for_its_actions() {
        let mut statuses = Vec::new();
        for case in CASES {
            let mut hop = Hop::new(case.position, case.mirror, case.mode);
            for (i, (input, want)) in case.script.iter().enumerate() {
                let got: Vec<Action> = hop.on(*input).into_iter().collect();
                assert_eq!(got, *want, "{}: step {i}, {input:?}", case.name);
            }
            hop.statuses(&mut statuses);
            assert_eq!(statuses, case.statuses, "{}", case.name);
        }
    }

    /// A block stored packet by packet with the mirror acking right
    /// behind: exactly one FNFA, at the head in SMARTH mode only; the
    /// head's report goes before its last ack, every other's after; and
    /// every packet is acked once.
    #[test]
    fn one_fnfa_per_block_and_the_report_order_by_position() {
        for mode in [Hdfs, Smarth] {
            for position in 0..3 {
                let mirror = position < 2;
                let mut hop = Hop::new(position, mirror, mode);
                let mut log = Vec::new();
                for seq in 0..5 {
                    log.extend(hop.on(Stored { seq, last: seq == 4 }));
                    if mirror {
                        log.extend(hop.on(MirrorAck { seq, statuses: &[S] }));
                    }
                    if log.last() == Some(&Report) {
                        log.extend(hop.on(Reported));
                    }
                }
                let fnfas = log.iter().filter(|a| matches!(a, Fnfa { .. })).count();
                let want = usize::from(position == 0 && mode == Smarth);
                assert_eq!(fnfas, want, "{mode:?} position {position}: {log:?}");
                let at = |pred: fn(&Action) -> bool| log.iter().position(pred).unwrap();
                let report = at(|a| *a == Report);
                let last_ack = at(|a| matches!(a, Action::Ack(Ack { last: true, .. })));
                assert_eq!(report < last_ack, position == 0, "{mode:?} position {position}: {log:?}");
                let covered: u64 = log
                    .iter()
                    .map(|a| match a {
                        Action::Ack(a) => a.batch,
                        _ => 0,
                    })
                    .sum();
                assert_eq!(covered, 5, "{mode:?} position {position}");
            }
        }
    }

    #[test]
    fn the_tail_verifies_and_waits_on_no_mirror() {
        let tail = Hop::new(2, false, Smarth);
        assert!(tail.verifies() && !tail.awaits_mirror());
        let mut middle = Hop::new(1, true, Smarth);
        assert!(!middle.verifies() && !middle.awaits_mirror());
        middle.on(Stored { seq: 0, last: false });
        assert!(middle.awaits_mirror());
        middle.on(MirrorAck { seq: 0, statuses: &[S] });
        assert!(!middle.awaits_mirror());
    }

    #[test]
    fn split_at_ack_hands_the_ack_and_what_follows_to_its_sender() {
        let mut hop = Hop::new(1, false, Hdfs);
        let (mine, sender) = hop.on(Stored { seq: 0, last: true }).split_at_ack();
        assert_eq!(mine.into_iter().collect::<Vec<_>>(), [Received]);
        assert_eq!(sender.into_iter().collect::<Vec<_>>(), [ack(0, 1, true), Report]);
        let merged = Ack { seq: 3, batch: 2, last: false }.merge(Ack { seq: 5, batch: 2, last: true });
        assert_eq!(merged, Ack { seq: 5, batch: 4, last: true });
    }
}
