//! The six workloads: their sizes and the seeded traffic each one offers.
//!
//! `--seed` feeds every product `*Config::seed` (tables, addresses, replay
//! order) and the generators here. The program under test only ever sees the
//! generated frames and flow-mods.

use crate::sut::{self, BackendKind, Blueprint, Frame, TcpKind, BURST, PORT_NET, PORT_USER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    L2Min,
    GatewayEs,
    GatewayOvs,
    SnatChurn,
    UpdatesEs,
    UpdatesOvs,
}

/// `l2_min`: MAC-table entries, distinct flows and switch ports (Fig. 10).
pub const L2_TABLE: usize = 1_000;
pub const L2_FLOWS: usize = 32 * BURST;
pub const L2_PORTS: u32 = 4;
/// `gateway_*`: routing prefixes and upstream flows (Fig. 13). 2 k prefixes
/// (the paper has 10 k) keep the compile inside a repeatable set-up; 30 k
/// flows overflow the OVS microflow cache and fit its megaflow cache.
pub const GATEWAY_PREFIXES: usize = 2_000;
pub const GATEWAY_FLOWS: usize = 938 * BURST;
/// `updates_*`: a smaller gateway, so the update path is what varies.
pub const UPDATES_PREFIXES: usize = 256;
pub const UPDATES_FLOWS: usize = 64 * BURST;
pub const LAPS_PER_CYCLE: usize = 8;
/// `snat_churn`: connections the generator keeps open, the table size that
/// holds them, and the established idle timeout in laps. One 16-lap round
/// touches 416 connections, so each recurs every ~3.8 k laps.
pub const SNAT_LIVE: u64 = 3_072 * BURST as u64;
pub const SNAT_CAPACITY: usize = 131_072;
pub const SNAT_EST_TIMEOUT: u64 = 8_192;
const ROUND: u32 = 16;

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::L2Min,
        Workload::GatewayEs,
        Workload::GatewayOvs,
        Workload::SnatChurn,
        Workload::UpdatesEs,
        Workload::UpdatesOvs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::L2Min => "l2_min",
            Workload::GatewayEs => "gateway_es",
            Workload::GatewayOvs => "gateway_ovs",
            Workload::SnatChurn => "snat_churn",
            Workload::UpdatesEs => "updates_es",
            Workload::UpdatesOvs => "updates_ovs",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn backend(self) -> BackendKind {
        match self {
            Workload::GatewayOvs | Workload::UpdatesOvs => BackendKind::Ovs,
            _ => BackendKind::Eswitch,
        }
    }

    /// The burst kind whose laps are the workload's forwarding rate.
    pub fn main_kind(self) -> Kind {
        match self {
            Workload::SnatChurn => Kind::Est,
            _ => Kind::Fwd,
        }
    }

    pub fn is_updates(self) -> bool {
        matches!(self, Workload::UpdatesEs | Workload::UpdatesOvs)
    }
}

/// What a burst is made of. Bursts are homogeneous, so a lap's time belongs
/// to one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Stateless forwarding (the replay workloads).
    Fwd,
    /// 32 SYNs of never-seen connections.
    New,
    /// Established traffic, either direction.
    Est,
    /// 32 FINs or 32 RSTs.
    Close,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Fwd, Kind::New, Kind::Est, Kind::Close];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fwd => "fwd",
            Kind::New => "new",
            Kind::Est => "est",
            Kind::Close => "close",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct BurstMeta {
    pub in_port: u32,
    pub kind: Kind,
    /// Frames the wire side must see come out.
    pub expected: u32,
    /// Replay position of the burst (replay workloads).
    index: usize,
}

/// A fixed flow set replayed burst by burst, in the seeded order.
pub struct Replay {
    in_port: u32,
    bursts: Vec<Vec<Frame>>,
    expected: Vec<u32>,
    next: usize,
}

impl Replay {
    fn new(frames: Vec<Frame>) -> Replay {
        let in_port = frames[0].in_port;
        assert!(frames.iter().all(|f| f.in_port == in_port));
        let bursts: Vec<Vec<Frame>> = frames.chunks_exact(BURST).map(<[Frame]>::to_vec).collect();
        Replay {
            in_port,
            expected: vec![BURST as u32; bursts.len()],
            bursts,
            next: 0,
        }
    }

    fn next(&mut self, burst: &mut Vec<Frame>) -> BurstMeta {
        let index = self.next;
        self.next = (index + 1) % self.bursts.len();
        burst.extend(self.bursts[index].iter().cloned());
        BurstMeta {
            in_port: self.in_port,
            kind: Kind::Fwd,
            expected: self.expected[index],
            index,
        }
    }
}

/// Replay plus a schedule of flow-mods: each step removes one active user's
/// NAT rule pair or puts it back, so at most one user is unprovisioned and
/// its packets (punted to a controller that drops them) are not delivered.
pub struct Updates {
    replay: Replay,
    /// Provisioned user of every frame, by burst.
    users: Vec<Vec<u16>>,
    /// Users that own flows in the active set, in seeded order.
    schedule: Vec<u16>,
    step: usize,
    removed: Option<u16>,
}

impl Updates {
    fn new(frames: Vec<Frame>, seed: u64) -> Updates {
        let replay = Replay::new(frames);
        let users: Vec<Vec<u16>> = replay
            .bursts
            .iter()
            .map(|b| b.iter().map(|f| sut::gateway_user_of(f) as u16).collect())
            .collect();
        let mut active = vec![false; sut::gateway_users()];
        for &user in users.iter().flatten() {
            active[usize::from(user)] = true;
        }
        let mut schedule: Vec<u16> = (0..active.len() as u16)
            .filter(|&u| active[usize::from(u)])
            .collect();
        let mut rng = SplitMix(seed ^ 0x005e_ed0f);
        for i in (1..schedule.len()).rev() {
            schedule.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        Updates {
            replay,
            users,
            schedule,
            step: 0,
            removed: None,
        }
    }

    /// The users the schedule cycles through, in order.
    pub fn scheduled_users(&self) -> &[u16] {
        &self.schedule
    }

    /// The next step's user and whether its rules are added (or removed).
    /// The caller applies `sut::gateway_user_flow_mods(user, add)`.
    pub fn next_update(&mut self) -> (usize, bool) {
        let user = self.schedule[(self.step / 2) % self.schedule.len()];
        let add = self.step % 2 == 1;
        self.step += 1;
        self.removed = (!add).then_some(user);
        (usize::from(user), add)
    }

    fn next(&mut self, burst: &mut Vec<Frame>) -> BurstMeta {
        let mut meta = self.replay.next(burst);
        if let Some(removed) = self.removed {
            let hit = self.users[meta.index]
                .iter()
                .filter(|&&u| u == removed)
                .count();
            meta.expected -= hit as u32;
        }
        meta
    }
}

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Connection churn through the SNAT edge. Connections are numbered in
/// creation order; `[head, tail)` are open. While filling, laps alternate
/// `new` and the handshake replies. In steady state a 16-lap round is one
/// `new` lap, the replies to it, 13 `est` laps walking all open connections
/// (alternating upstream and downstream), and one `close` lap that ends the
/// 32 oldest — FIN on even rounds, which the timing wheel reclaims, RST on
/// odd ones, which tears down at once.
pub struct Churn {
    seed: u64,
    /// NAT port the edge allocated, by connection number modulo capacity.
    nat_port: Vec<u16>,
    head: u64,
    tail: u64,
    cursor: u64,
    steady: bool,
    slot: u32,
    round: u64,
    /// Connections of the burst in flight, and whether it went upstream.
    pending: Vec<u64>,
    upstream: bool,
}

impl Churn {
    fn new(seed: u64) -> Churn {
        Churn {
            seed,
            nat_port: vec![0; SNAT_CAPACITY],
            head: 0,
            tail: 0,
            cursor: 0,
            steady: false,
            slot: 0,
            round: 0,
            pending: Vec::with_capacity(BURST),
            upstream: true,
        }
    }

    pub fn open(&self) -> u64 {
        self.tail - self.head
    }

    /// Private endpoint of connection `seq`: the seed permutes the address
    /// space, so a client never repeats within a run.
    fn client(seed: u64, seq: u64) -> (u32, u16) {
        let scramble = (seed as u32) | 1;
        let host = (seq as u32).wrapping_mul(scramble) & 0x00ff_ffff;
        let port = 1_024 + (mix(seq ^ seed) % 60_000) as u16;
        (0x0a00_0000 | host, port)
    }

    /// Server of connection `seq`. Open connections are < 2^20 apart, so no
    /// two of them share a server and reply tuples cannot alias even when
    /// the pool hands out the same public port twice.
    fn server(seq: u64) -> (u32, u16) {
        let port = if seq & 1 == 0 { 80 } else { 443 };
        (0xac10_0000 + (seq & 0x000f_ffff) as u32, port)
    }

    fn fill(&mut self, burst: &mut Vec<Frame>, kind: TcpKind, upstream: bool) {
        self.upstream = upstream;
        for &seq in &self.pending {
            let (client, server) = (Self::client(self.seed, seq), Self::server(seq));
            burst.push(if upstream {
                sut::tcp_frame(client, server, kind, PORT_USER)
            } else {
                let public = (
                    sut::snat_public_ip(),
                    self.nat_port[seq as usize % SNAT_CAPACITY],
                );
                sut::tcp_frame(server, public, kind, PORT_NET)
            });
        }
    }

    fn next(&mut self, burst: &mut Vec<Frame>) -> BurstMeta {
        self.pending.clear();
        let burst_len = BURST as u64;
        let kind = match self.slot {
            0 => {
                self.pending.extend(self.tail..self.tail + burst_len);
                self.tail += burst_len;
                self.fill(burst, TcpKind::Syn, true);
                Kind::New
            }
            1 => {
                self.pending.extend(self.tail - burst_len..self.tail);
                self.fill(burst, TcpKind::SynAck, false);
                Kind::Est
            }
            slot if slot < ROUND - 1 => {
                for _ in 0..BURST {
                    if self.cursor < self.head || self.cursor >= self.tail {
                        self.cursor = self.head;
                    }
                    self.pending.push(self.cursor);
                    self.cursor += 1;
                }
                self.fill(burst, TcpKind::Ack, slot % 2 == 0);
                Kind::Est
            }
            _ => {
                self.pending.extend(self.head..self.head + burst_len);
                self.head += burst_len;
                let close = if self.round.is_multiple_of(2) {
                    TcpKind::Fin
                } else {
                    TcpKind::Rst
                };
                self.fill(burst, close, true);
                Kind::Close
            }
        };
        self.steady |= self.open() > SNAT_LIVE;
        self.slot = if self.steady {
            (self.slot + 1) % ROUND
        } else {
            (self.slot + 1) % 2
        };
        if self.slot == 0 {
            self.round += 1;
        }
        BurstMeta {
            in_port: if self.upstream { PORT_USER } else { PORT_NET },
            kind,
            expected: BURST as u32,
            index: 0,
        }
    }

    /// Checks what the edge delivered for the burst in flight and learns the
    /// public ports of new connections. Returns the number of wrong frames.
    fn observe(&mut self, meta: &BurstMeta, wire: &[Vec<Frame>]) -> u32 {
        let out = &wire[if self.upstream { PORT_NET } else { PORT_USER } as usize];
        let mut wrong = self.pending.len().abs_diff(out.len()) as u32;
        for (&seq, frame) in self.pending.iter().zip(out) {
            let slot = seq as usize % SNAT_CAPACITY;
            let ok = match sut::endpoints(frame) {
                Some((src_ip, src_port, dst_ip, dst_port)) if self.upstream => {
                    if meta.kind == Kind::New {
                        self.nat_port[slot] = src_port;
                    }
                    src_ip == sut::snat_public_ip()
                        && src_port == self.nat_port[slot]
                        && (dst_ip, dst_port) == Self::server(seq)
                }
                Some((src_ip, src_port, dst_ip, dst_port)) => {
                    (src_ip, src_port) == Self::server(seq)
                        && (dst_ip, dst_port) == Self::client(self.seed, seq)
                }
                None => false,
            };
            wrong += u32::from(!ok);
        }
        wrong
    }
}

/// A workload's traffic source.
pub enum Traffic {
    Replay(Replay),
    Churn(Churn),
    Updates(Updates),
}

impl Traffic {
    /// Appends the next burst to `burst` (cloning templates or building
    /// frames — generator work, outside every timed span).
    pub fn next(&mut self, burst: &mut Vec<Frame>) -> BurstMeta {
        match self {
            Traffic::Replay(replay) => replay.next(burst),
            Traffic::Churn(churn) => churn.next(burst),
            Traffic::Updates(updates) => updates.next(burst),
        }
    }

    /// Inspects what the wire side received for `meta`'s burst; returns the
    /// number of frames that are not what the generator knows they must be.
    pub fn observe(&mut self, meta: &BurstMeta, wire: &[Vec<Frame>]) -> u32 {
        match self {
            Traffic::Churn(churn) => churn.observe(meta, wire),
            _ => 0,
        }
    }

    /// Records the oracle's delivered count for `meta`'s burst. Only the
    /// replay sets learn it; the others already state what they expect.
    pub fn learn(&mut self, meta: &BurstMeta, delivered: u32) {
        if let Traffic::Replay(replay) = self {
            replay.expected[meta.index] = delivered;
        }
    }

    /// Laps that bring the system to steady state: one pass over a replay
    /// set, or filling the connection table plus two rounds.
    pub fn warmup_laps(&self) -> usize {
        match self {
            Traffic::Replay(replay) => replay.bursts.len(),
            Traffic::Updates(updates) => updates.replay.bursts.len(),
            Traffic::Churn(_) => 2 * (SNAT_LIVE as usize / BURST) + 2 * ROUND as usize,
        }
    }

    /// Frames for the side probes and the runtime probe: the first bursts.
    pub fn sample_frames(&self, bursts: usize) -> Vec<Frame> {
        let of = |replay: &Replay| -> Vec<Frame> {
            let first = replay.bursts.iter().take(bursts);
            first.flatten().cloned().collect()
        };
        match self {
            Traffic::Replay(replay) => of(replay),
            Traffic::Updates(updates) => of(&updates.replay),
            // Upstream openers of the first connection numbers.
            Traffic::Churn(churn) => (0..(bursts * BURST) as u64)
                .map(|seq| {
                    let client = Churn::client(churn.seed, seq);
                    sut::tcp_frame(client, Churn::server(seq), TcpKind::Syn, PORT_USER)
                })
                .collect(),
        }
    }
}

/// Everything `--seed` determines for one workload.
pub fn inputs(workload: Workload, seed: u64) -> (Blueprint, Traffic) {
    match workload {
        Workload::L2Min => {
            let (blueprint, frames) = sut::l2_inputs(seed, L2_TABLE, L2_PORTS, L2_FLOWS);
            (blueprint, Traffic::Replay(Replay::new(frames)))
        }
        Workload::GatewayEs | Workload::GatewayOvs => {
            let (blueprint, frames) = sut::gateway_inputs(seed, GATEWAY_PREFIXES, GATEWAY_FLOWS);
            (blueprint, Traffic::Replay(Replay::new(frames)))
        }
        Workload::UpdatesEs | Workload::UpdatesOvs => {
            let (blueprint, frames) = sut::gateway_inputs(seed, UPDATES_PREFIXES, UPDATES_FLOWS);
            (blueprint, Traffic::Updates(Updates::new(frames, seed)))
        }
        Workload::SnatChurn => (
            sut::snat_inputs(seed, SNAT_CAPACITY, SNAT_EST_TIMEOUT),
            Traffic::Churn(Churn::new(seed)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, laps: usize) -> Vec<Vec<u8>> {
        let mut traffic = inputs(workload, seed).1;
        let mut burst = Vec::new();
        let mut frames = Vec::new();
        for _ in 0..laps {
            traffic.next(&mut burst);
            frames.extend(burst.drain(..).map(|f| f.data().to_vec()));
        }
        frames
    }

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        for workload in [Workload::L2Min, Workload::UpdatesEs, Workload::SnatChurn] {
            let a = stream(workload, 7, 40);
            assert_eq!(a.len(), 40 * BURST);
            assert_eq!(a, stream(workload, 7, 40), "{}", workload.name());
            assert_ne!(a, stream(workload, 8, 40), "{}", workload.name());
        }
    }

    #[test]
    fn every_update_touches_a_user_with_active_flows() {
        let Traffic::Updates(mut updates) = inputs(Workload::UpdatesEs, 3).1 else {
            panic!("updates_es offers update cycles");
        };
        let active: std::collections::HashSet<u16> =
            updates.users.iter().flatten().copied().collect();
        assert!(!active.is_empty());
        let mut burst = Vec::new();
        for step in 0..4 * active.len() {
            let (user, add) = updates.next_update();
            assert!(
                active.contains(&(user as u16)),
                "user {user} has no active flow"
            );
            assert_eq!(add, step % 2 == 1, "steps alternate remove and add");
            // A removed user's packets are expected missing, once re-added not.
            let missing: u32 = (0..updates.replay.bursts.len())
                .map(|_| {
                    burst.clear();
                    BURST as u32 - updates.next(&mut burst).expected
                })
                .sum();
            assert_eq!(missing > 0, !add, "step {step}");
        }
    }

    #[test]
    fn churn_schedule_holds_its_open_connection_target() {
        let mut churn = Churn::new(11);
        let mut burst = Vec::new();
        let warmup = Traffic::Churn(Churn::new(11)).warmup_laps();
        let mut kinds = [0u32; 4];
        for lap in 0..warmup + 4_000 * ROUND as usize {
            burst.clear();
            let meta = churn.next(&mut burst);
            assert_eq!(burst.len(), BURST);
            if lap >= warmup {
                kinds[Kind::ALL.iter().position(|k| *k == meta.kind).unwrap()] += 1;
                let open = churn.open();
                assert!(
                    (SNAT_LIVE..=SNAT_LIVE + BURST as u64).contains(&open),
                    "lap {lap}: {open} open"
                );
            }
        }
        // new : est : close = 1 : 14 : 1
        assert_eq!(kinds, [0, 4_000, 14 * 4_000, 4_000]);
    }
}
