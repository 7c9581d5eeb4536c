//! Zero-copy inbound path laws (DESIGN.md §14): the cursor decode
//! (`decode_batch_raw` + in-place item walk) must be *byte-equal* to the
//! materializing oracle (`decode_batch`) for every payload — including
//! NaN bit patterns, empty batches, and frames reassembled from torn
//! reads into dirty recycled buffers.

use std::io::Read;

use proptest::prelude::*;

use lazygraph_cluster::{decode_batch, decode_batch_raw, encode_batch, Batch};
use lazygraph_engine::{EdgeCtx, VertexCtx};
use lazygraph_graph::VertexId;
use lazygraph_net::{encode_frame_into, FrameKind, FrameReader, Wire, WireReader, HEADER_LEN};

type Item = (u32, f32);

/// Builds a wire batch from `(gid, delta-bits)` pairs — going through
/// bits keeps NaN payloads intact, which `f32` proptest strategies and
/// float equality would silently collapse.
fn batch_from_bits(from: usize, round: u64, sent_at: f64, last: bool, bits: &[(u32, u32)]) -> Batch<Item> {
    Batch {
        from,
        sent_at,
        round,
        last,
        kind: FrameKind::Data,
        items: bits.iter().map(|&(g, b)| (g, f32::from_bits(b))).collect(),
        raw: None,
    }
}

/// Bit-faithful item fingerprint: floats compared as raw bits.
fn bits_of(items: &[Item]) -> Vec<(u32, u32)> {
    items.iter().map(|&(g, d)| (g, d.to_bits())).collect()
}

/// A reader that serves a byte stream in caller-chosen chunk sizes —
/// the torn-read simulator. Chunk boundaries land anywhere: inside the
/// 5-byte frame header, inside the item region, between frames.
struct Torn<'a> {
    data: &'a [u8],
    cuts: &'a [usize],
    pos: usize,
    cut: usize,
}

impl Read for Torn<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let rest = &self.data[self.pos..];
        if rest.is_empty() {
            return Ok(0); // EOF — FrameReader reports PeerClosed.
        }
        let step = self
            .cuts
            .get(self.cut)
            .map(|&c| c.clamp(1, rest.len()))
            .unwrap_or(rest.len())
            .min(out.len());
        self.cut += 1;
        out[..step].copy_from_slice(&rest[..step]);
        self.pos += step;
        Ok(step)
    }
}

/// Decodes a raw-cursor batch the way `route_inbound` does: walk the
/// encoded item region item-by-item, never materializing a `Vec`.
fn cursor_walk(b: &mut Batch<Item>) -> Result<Vec<Item>, lazygraph_net::NetError> {
    let raw = b.raw.as_mut().expect("cursor walk needs a raw batch");
    let mut r = WireReader::new(&raw.bytes[raw.offset..]);
    let mut out = Vec::new();
    for _ in 0..raw.count {
        out.push(Item::decode(&mut r)?);
    }
    raw.count = 0;
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Core byte-equality law: for any batch — any gids, any delta *bit
    /// patterns* (NaNs, infinities, negative zero), any header values —
    /// the cursor walk, `make_items`, and the materializing oracle all
    /// decode the exact same bits from the exact same payload.
    #[test]
    fn cursor_decode_matches_materializing_decode(
        from in 0usize..64,
        round in any::<u64>(),
        sent_at_bits in any::<u64>(),
        last in any::<bool>(),
        bits in proptest::collection::vec((any::<u32>(), any::<u32>()), 0usize..64),
    ) {
        let sent = batch_from_bits(from, round, f64::from_bits(sent_at_bits), last, &bits);
        let payload = encode_batch(&sent);

        let oracle = decode_batch::<Item>(&payload).expect("oracle decode");
        let mut raw = decode_batch_raw::<Item>(payload.clone()).expect("raw decode");
        prop_assert_eq!(raw.from, oracle.from);
        prop_assert_eq!(raw.round, oracle.round);
        prop_assert_eq!(raw.sent_at.to_bits(), oracle.sent_at.to_bits());
        prop_assert_eq!(raw.last, oracle.last);
        prop_assert_eq!(raw.item_count(), oracle.items.len());

        // Cursor walk (the hot path) sees the same bits as the oracle...
        let walked = cursor_walk(&mut raw).expect("cursor walk");
        prop_assert_eq!(bits_of(&walked), bits_of(&oracle.items));
        prop_assert_eq!(raw.item_count(), 0, "walk must drain the cursor");

        // ...and so does `make_items` (the escape hatch), from a fresh raw.
        let mut again = decode_batch_raw::<Item>(payload).expect("raw decode");
        again.make_items().expect("materialize");
        prop_assert_eq!(bits_of(&again.items), bits_of(&oracle.items));
        again.make_items().expect("idempotent");
        prop_assert_eq!(again.item_count(), oracle.items.len());
    }

    /// Frame reassembly is cut-invariant: however the TCP stream tears —
    /// mid-header, mid-item, one byte at a time — the reassembled payload
    /// is byte-identical, even when assembled into a *dirty recycled*
    /// buffer from a previous, larger frame.
    #[test]
    fn torn_reads_and_dirty_buffers_reassemble_byte_identical(
        bits in proptest::collection::vec((any::<u32>(), any::<u32>()), 0usize..32),
        cuts in proptest::collection::vec(1usize..48, 0usize..24),
        dirt in proptest::collection::vec(any::<u8>(), 1usize..512),
    ) {
        let sent = batch_from_bits(3, 7, 0.5, true, &bits);
        let payload = encode_batch(&sent);
        let mut stream = Vec::new();
        encode_frame_into(FrameKind::Data, &payload, &mut stream).expect("frame");

        let mut reader = FrameReader::new();
        // Seed the pool with a dirty buffer: junk contents, arbitrary
        // capacity. A correct reader sizes to the header's length field
        // and overwrites exactly that many bytes.
        reader.supply_buffer(dirt);

        let mut torn = Torn { data: &stream, cuts: &cuts, pos: 0, cut: 0 };
        let frame = loop {
            match reader.poll(&mut torn).unwrap_or_else(|e| panic!("poll: {e}")) {
                Some(f) => break f,
                None => continue,
            }
        };
        prop_assert_eq!(frame.kind, FrameKind::Data);
        prop_assert_eq!(frame.wire_len(), HEADER_LEN + payload.len());
        prop_assert_eq!(&frame.payload, &payload, "reassembly must be cut-invariant");
        prop_assert!(reader.last_frame_pooled(), "seeded buffer must be reused");

        // And the zero-copy decode of the reassembled bytes still matches
        // the oracle bit-for-bit.
        let mut raw = decode_batch_raw::<Item>(frame.payload).expect("raw decode");
        let walked = cursor_walk(&mut raw).expect("cursor walk");
        prop_assert_eq!(bits_of(&walked), bits_of(&sent.items));
    }

    /// Back-to-back frames through one reader, recycling each payload
    /// buffer into the next frame's assembly: every frame's decode must
    /// match its own oracle — no bleed-through from the recycled bytes.
    #[test]
    fn recycled_buffers_never_bleed_between_frames(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u32>(), any::<u32>()), 0usize..16),
            1usize..6,
        ),
        cuts in proptest::collection::vec(1usize..32, 0usize..32),
    ) {
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for (i, bits) in batches.iter().enumerate() {
            let b = batch_from_bits(i, i as u64, i as f64, i + 1 == batches.len(), bits);
            let payload = encode_batch(&b);
            encode_frame_into(FrameKind::Data, &payload, &mut stream).expect("frame");
            payloads.push(payload);
        }

        let mut reader = FrameReader::new();
        let mut torn = Torn { data: &stream, cuts: &cuts, pos: 0, cut: 0 };
        for (i, want) in payloads.iter().enumerate() {
            let frame = loop {
                match reader
                    .poll(&mut torn)
                    .unwrap_or_else(|e| panic!("poll frame {i}: {e}"))
                {
                    Some(f) => break f,
                    None => continue,
                }
            };
            prop_assert_eq!(&frame.payload, want, "frame {} reassembly", i);
            let mut raw = decode_batch_raw::<Item>(frame.payload).expect("raw decode");
            let walked = cursor_walk(&mut raw).expect("cursor walk");
            prop_assert_eq!(bits_of(&walked), bits_of(&batches[i].iter()
                .map(|&(g, b)| (g, f32::from_bits(b))).collect::<Vec<_>>()));
            // Return the spent buffer — the next frame assembles into it.
            if let Some(r) = raw.raw.take() {
                reader.supply_buffer(r.bytes);
            }
        }
    }

    /// A torn *tail* — the item region cut short relative to the header's
    /// item count — is a typed error at the cursor decode, exactly where
    /// the materializing oracle fails too. Neither path panics, neither
    /// yields items past the tear.
    #[test]
    fn truncated_item_region_fails_both_paths_identically(
        bits in proptest::collection::vec((any::<u32>(), any::<u32>()), 1usize..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let sent = batch_from_bits(0, 1, 0.0, true, &bits);
        let payload = encode_batch(&sent);
        // Cut strictly inside the item region: keep the header + count
        // intact so `decode_batch_raw` succeeds and the damage surfaces
        // at the cursor, as a short socket write would.
        let item_start = payload.len() - bits.len() * 8;
        let cut = item_start + ((payload.len() - 1 - item_start) as f64 * cut_frac) as usize;
        let torn_payload = payload[..cut].to_vec();

        let oracle_err = decode_batch::<Item>(&torn_payload).is_err();
        let mut raw = decode_batch_raw::<Item>(torn_payload).expect("header still whole");
        let cursor_err = cursor_walk(&mut raw).is_err();
        prop_assert!(oracle_err, "oracle must reject a torn item region");
        prop_assert!(cursor_err, "cursor must reject a torn item region");
    }
}

// ---------------------------------------------------------------------------
// A malformed item inside a well-formed frame fails the run
// ---------------------------------------------------------------------------

/// A label whose wire form never decodes: the frame layer (length,
/// checksum, routing header, item count) is satisfied, the item region
/// is not — the corruption the frame layer cannot see.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Tainted(u32);

impl Wire for Tainted {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, lazygraph_net::NetError> {
        let tag = r.take_u8()?;
        Err(lazygraph_net::NetError::BadTag { tag, ty: "Tainted" })
    }
}

/// Min-label propagation over [`Tainted`] deltas.
struct MinLabel;

impl lazygraph_engine::VertexProgram for MinLabel {
    type VData = u32;
    type Delta = Tainted;
    fn name(&self) -> &'static str {
        "min-label"
    }
    fn init_data(&self, _v: VertexId, _c: &VertexCtx) -> u32 {
        u32::MAX
    }
    fn init_message(&self, v: VertexId, _c: &VertexCtx) -> Option<Tainted> {
        Some(Tainted(v.0))
    }
    fn sum(&self, a: Tainted, b: Tainted) -> Tainted {
        Tainted(a.0.min(b.0))
    }
    fn inverse(&self, accum: Tainted, _a: Tainted) -> Tainted {
        accum
    }
    fn apply(&self, _v: VertexId, data: &mut u32, a: Tainted, _c: &VertexCtx) -> Option<Tainted> {
        (a.0 < *data).then(|| {
            *data = a.0;
            a
        })
    }
    fn scatter(&self, _v: VertexId, _d: &u32, x: Tainted, _c: &VertexCtx, _e: &EdgeCtx) -> Option<Tainted> {
        Some(x)
    }
}

/// Items that fail to decode off a raw TCP batch used to be dropped with
/// the rest of their batch (`Ok` with items missing, in release builds).
/// They must fail the run; the in-process transport never encodes, so it
/// is the control.
#[test]
fn malformed_item_region_fails_the_run() {
    use lazygraph_engine::{run, EngineConfig, EngineKind, TransportKind};
    use lazygraph_graph::generators::{rmat, RmatConfig};
    // Dense enough that both machines receive items in the same round, so
    // both fail in it (nobody is left waiting at a shared-memory barrier).
    let g = {
        let g = rmat(RmatConfig::graph500(7, 6, 5));
        let mut b = lazygraph_graph::GraphBuilder::new(g.num_vertices());
        b.extend(g.edges());
        b.symmetrize();
        b.build()
    };
    for engine in [EngineKind::PowerGraphSync, EngineKind::LazyBlockAsync] {
        let cfg = EngineConfig::lazygraph().with_engine(engine).with_threads(1);
        let control = run(&g, 2, &cfg, &MinLabel).expect("in-process channels never decode");
        assert!(control.metrics.converged);
        let tcp = cfg.clone().with_transport(TransportKind::Tcp);
        let failed = run(&g, 2, &tcp, &MinLabel).map(|r| r.metrics.converged);
        assert!(
            matches!(failed, Err(lazygraph_engine::CommError::Transport { .. })),
            "{engine:?}: a malformed item must fail the run, got {failed:?}"
        );
    }
}
