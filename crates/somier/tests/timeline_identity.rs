//! Timeline identity guard: a small traced One-Buffer `target spread` run
//! must produce exactly the same timeline — every span's id, lane, kind,
//! label, start, end and bytes — as the pinned reference. Any change to
//! the recorder, the planner or the runtime that reorders, renumbers or
//! retimes a single span changes the hash.

use spread_somier::{run_somier, SomierConfig, SomierImpl};

/// FNV-1a over a byte stream (stable across toolchains, unlike
/// `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[test]
fn one_buffer_spread_timeline_is_pinned() {
    let cfg = SomierConfig::test_small(24, 2);
    let (_, rt) = run_somier(&cfg, SomierImpl::OneBufferSpread, 2).unwrap();
    let tl = rt.timeline();
    let mut h = Fnv::new();
    for s in tl.spans() {
        h.u64(s.id.0);
        h.str(&format!("{:?}", s.lane));
        h.str(&format!("{:?}", s.kind));
        h.str(&s.label);
        h.u64(s.start.as_nanos());
        h.u64(s.end.as_nanos());
        h.u64(s.bytes);
    }
    assert_eq!(
        (tl.len(), h.0),
        (512, 16_040_439_699_539_468_344),
        "timeline of the traced One-Buffer spread run changed"
    );
}
