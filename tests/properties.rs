//! Property-based tests over the core data structures and invariants.

use osnt::packet::pcap::{self, PcapRecord, TsResolution};
use osnt::packet::wildcard::IpPrefix;
use osnt::packet::{MacAddr, PacketBuilder, WildcardRule};
use osnt::time::{HwTimestamp, SimDuration, SimTime};
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(|mut b| {
        b[0] &= 0xfe; // unicast
        MacAddr::new(b)
    })
}

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    // ---------------- timestamps ----------------

    #[test]
    fn timestamp_roundtrip_error_is_bounded(ps in 0u64..90_000_000_000_000) {
        let ts = HwTimestamp::from_sim_time(SimTime::from_ps(ps));
        let back = ts.to_ps();
        prop_assert!(back <= ps);
        prop_assert!(ps - back <= osnt::time::timestamp::MAX_ROUNDTRIP_ERROR_PS);
    }

    #[test]
    fn timestamp_encoding_is_monotone(a in 0u64..1_000_000_000_000, b in 0u64..1_000_000_000_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ta = HwTimestamp::from_sim_time(SimTime::from_ps(lo));
        let tb = HwTimestamp::from_sim_time(SimTime::from_ps(hi));
        prop_assert!(ta <= tb);
        prop_assert!(ta.to_ps() <= tb.to_ps());
    }

    #[test]
    fn timestamp_wire_roundtrip(raw in any::<u64>()) {
        let ts = HwTimestamp::from_raw(raw);
        prop_assert_eq!(HwTimestamp::from_be_bytes(ts.to_be_bytes()), ts);
    }

    #[test]
    fn sim_duration_sum_is_associative(a in 0u64..1u64<<40, b in 0u64..1u64<<40, c in 0u64..1u64<<40) {
        let (da, db, dc) = (SimDuration::from_ps(a), SimDuration::from_ps(b), SimDuration::from_ps(c));
        prop_assert_eq!((da + db) + dc, da + (db + dc));
    }

    // ---------------- packets ----------------

    #[test]
    fn udp_frame_roundtrips_fields(
        src_mac in arb_mac(),
        dst_mac in arb_mac(),
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
        sport in 1u16..,
        dport in 1u16..,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let pkt = PacketBuilder::ethernet(src_mac, dst_mac)
            .ipv4(src_ip, dst_ip)
            .udp(sport, dport)
            .payload(&payload)
            .build();
        let v = pkt.parse();
        prop_assert_eq!(v.src_mac(), Some(src_mac));
        prop_assert_eq!(v.dst_mac(), Some(dst_mac));
        let ft = v.five_tuple().expect("five tuple");
        prop_assert_eq!(ft.src_ip, IpAddr::V4(src_ip));
        prop_assert_eq!(ft.dst_ip, IpAddr::V4(dst_ip));
        prop_assert_eq!(ft.src_port, sport);
        prop_assert_eq!(ft.dst_port, dport);
        // The frame respects the Ethernet minimum.
        prop_assert!(pkt.frame_len() >= 64);
        // Payload is recoverable (zero-padded frames may append padding).
        let got = v.l4_payload().expect("payload view");
        prop_assert!(got.len() >= payload.len());
        prop_assert_eq!(&got[..payload.len()], &payload[..]);
    }

    #[test]
    fn tcp_frame_checksum_always_verifies(
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
        sport in 1u16..,
        dport in 1u16..,
        seq in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        use osnt::packet::checksum::{pseudo_header_v4, Checksum};
        use osnt::packet::parser::L3;
        let pkt = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(src_ip, dst_ip)
            .tcp(sport, dport, seq)
            .payload(&payload)
            .build();
        let v = pkt.parse();
        let Some(L3::Ipv4(ip)) = v.l3 else { panic!("not ipv4") };
        let seg = &pkt.data()[v.l4_offset..v.l4_offset + ip.payload_len()];
        let mut c = Checksum::new();
        pseudo_header_v4(&mut c, ip.src, ip.dst, 6, seg.len() as u16);
        c.add_bytes(seg);
        prop_assert_eq!(c.finish(), 0);
    }

    #[test]
    fn pad_to_frame_hits_any_legal_size(target in 64usize..=1518) {
        let pkt = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .udp(1, 2)
            .pad_to_frame(target)
            .build();
        prop_assert_eq!(pkt.frame_len(), target);
        prop_assert!(pkt.parse().five_tuple().is_some());
    }

    // ---------------- pcap ----------------

    #[test]
    fn pcap_nano_roundtrip(
        recs in proptest::collection::vec(
            (0u64..1u64 << 50, proptest::collection::vec(any::<u8>(), 0..128)),
            0..20,
        )
    ) {
        let records: Vec<PcapRecord> = recs
            .into_iter()
            .map(|(ts, data)| PcapRecord::full(ts - ts % 1000, data))
            .collect();
        let img = pcap::to_bytes(&records, TsResolution::Nano);
        let back = pcap::from_bytes(&img).unwrap();
        prop_assert_eq!(back, records);
    }

    // ---------------- wildcard rules ----------------

    #[test]
    fn rule_from_own_fields_always_matches(
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
        sport in 1u16..,
        dport in 1u16..,
    ) {
        let pkt = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(src_ip, dst_ip)
            .udp(sport, dport)
            .build();
        let rule = WildcardRule::any()
            .with_src_mac(MacAddr::local(1))
            .with_dst_mac(MacAddr::local(2))
            .with_src_ip(IpPrefix::host(IpAddr::V4(src_ip)))
            .with_dst_ip(IpPrefix::host(IpAddr::V4(dst_ip)))
            .with_ip_protocol(17)
            .with_src_port(sport)
            .with_dst_port(dport);
        prop_assert!(rule.matches(&pkt.parse()));
        prop_assert!(WildcardRule::any().matches(&pkt.parse()));
    }

    #[test]
    fn prefix_contains_is_consistent_with_masking(
        base in any::<u32>(),
        addr in any::<u32>(),
        len in 0u8..=32,
    ) {
        let p = IpPrefix::new(IpAddr::V4(Ipv4Addr::from(base)), len);
        let expected = len == 0 || (base ^ addr) >> (32 - len as u32) == 0;
        prop_assert_eq!(p.contains(IpAddr::V4(Ipv4Addr::from(addr))), expected);
    }

    // ---------------- hashing ----------------

    #[test]
    fn crc32_streaming_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        use osnt::packet::hash::{crc32, crc32_update};
        let split = split.min(data.len());
        let mut state = 0xffff_ffffu32;
        state = crc32_update(state, &data[..split]);
        state = crc32_update(state, &data[split..]);
        prop_assert_eq!(state ^ 0xffff_ffff, crc32(&data));
    }
}

// ---------------- OpenFlow codec ----------------

proptest! {
    #[test]
    fn flow_mod_wire_roundtrip(
        dst in any::<u32>(),
        priority in any::<u16>(),
        cookie in any::<u64>(),
        idle in any::<u16>(),
        hard in any::<u16>(),
        port in 1u16..1000,
        xid in any::<u32>(),
    ) {
        use osnt::openflow::messages::{FlowMod, Message};
        use osnt::openflow::{Action, OfMatch};
        let mut fm = FlowMod::add(
            OfMatch::ipv4_dst(Ipv4Addr::from(dst)),
            priority,
            vec![Action::Output { port, max_len: 0 }],
        );
        fm.cookie = cookie;
        fm.idle_timeout = idle;
        fm.hard_timeout = hard;
        let msg = Message::FlowMod(fm);
        let wire = msg.encode(xid);
        let mut framed = vec![0xee];
        msg.encode_into(xid, &mut framed);
        prop_assert_eq!(&framed[1..], &wire[..]);
        let (back, back_xid) = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
        prop_assert_eq!(back_xid, xid);
    }

    #[test]
    fn echo_roundtrip_any_payload(data in proptest::collection::vec(any::<u8>(), 0..1024), xid in any::<u32>()) {
        use osnt::openflow::messages::{EchoData, Message};
        let msg = Message::EchoRequest(EchoData(data));
        let wire = msg.encode(xid);
        let mut framed = vec![0xee];
        msg.encode_into(xid, &mut framed);
        prop_assert_eq!(&framed[1..], &wire[..]);
        let (back, _) = Message::decode(&wire).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn codec_reassembles_any_chunking(chunk in 1usize..64, xids in proptest::collection::vec(any::<u32>(), 1..10)) {
        use osnt::openflow::messages::Message;
        use osnt::openflow::MessageCodec;
        let wire: Vec<u8> = xids.iter().flat_map(|x| Message::BarrierRequest.encode(*x)).collect();
        let mut codec = MessageCodec::new();
        let mut got = Vec::new();
        for c in wire.chunks(chunk) {
            codec.feed(c);
            got.extend(codec.drain_messages().unwrap());
        }
        prop_assert_eq!(got.len(), xids.len());
        for ((m, x), want) in got.iter().zip(&xids) {
            prop_assert_eq!(m, &Message::BarrierRequest);
            prop_assert_eq!(x, want);
        }
    }
}

#[test]
#[should_panic(expected = "EchoRequest of 70008 bytes exceeds")]
fn an_oversize_message_is_refused_not_wrapped() {
    use osnt::openflow::messages::{EchoData, Message};
    // The length field is 16 bits: this echo once went out stating 4 472
    // bytes and decoded as a 4 464-byte echo.
    Message::EchoRequest(EchoData(vec![0; 70_000])).encode(1);
}

/// FlowMod, PacketOut and flow-stats reply with `n` actions, every kind
/// in turn, the list built by `list`.
fn action_messages(
    n: u16,
    list: impl Fn(Vec<osnt::openflow::Action>) -> osnt::openflow::ActionList,
) -> Vec<osnt::openflow::Message> {
    use osnt::openflow::messages::{FlowMod, FlowStatsEntry, Message, PacketOut, StatsBody};
    use osnt::openflow::{Action, OfMatch};
    let actions: Vec<Action> = (0..n)
        .map(|i| match i % 3 {
            0 => Action::Output {
                port: i + 1,
                max_len: 128,
            },
            1 => Action::SetVlanVid(100 * i),
            _ => Action::StripVlan,
        })
        .collect();
    let of_match = OfMatch::ipv4_dst(Ipv4Addr::new(10, 1, 0, n as u8));
    let entry = FlowStatsEntry {
        table_id: 0,
        of_match,
        duration_sec: 3,
        duration_nsec: 250_000,
        priority: n,
        cookie: 0xc0ffee,
        packet_count: 55,
        byte_count: 7040,
        actions: list(actions.clone()),
    };
    vec![
        Message::FlowMod(FlowMod::add(of_match, 100 + n, list(actions.clone()))),
        Message::PacketOut(PacketOut {
            buffer_id: 0xffff_ffff,
            in_port: 0xfff8,
            actions: list(actions),
            data: vec![0x55; 60],
        }),
        Message::StatsReply(StatsBody::FlowReply {
            entries: vec![entry.clone(), entry],
            more: n % 2 == 1,
        }),
    ]
}

/// The OpenFlow decoder on hostile bytes. A corpus of FlowMod, PacketOut
/// and flow-stats reply with 0–5 actions, so lists cross the inline
/// boundary, round-trips to the message built from a `Vec` and prints
/// the same `Debug` text. Cut at every offset it fails to decode; with
/// seeded 3-byte flips it decodes to a typed `WireError` or to a message
/// that encodes and decodes to itself, and never panics.
#[test]
fn openflow_decoder_survives_truncation_and_flips() {
    use osnt::openflow::{ActionList, Message};
    const FLIPS: usize = 2_000;
    let mut rng = 0x0f10_3300_u64;
    let mut next = move || {
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (rng ^ (rng >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut decoded = 0;
    for n in 0..=5 {
        let pushed = action_messages(n, |v| v.into_iter().collect::<ActionList>());
        let from_vec = action_messages(n, ActionList::from);
        for (msg, want) in pushed.iter().zip(&from_vec) {
            let wire = msg.encode(0x5eed + u32::from(n));
            let (back, xid) = Message::decode(&wire).expect("corpus decodes");
            assert_eq!((&back, xid), (want, 0x5eed + u32::from(n)));
            assert_eq!(format!("{back:?}"), format!("{want:?}"));
            for cut in 0..wire.len() {
                assert!(Message::decode(&wire[..cut]).is_err(), "cut at {cut}");
            }
            for _ in 0..FLIPS {
                let mut bytes = wire.clone();
                for _ in 0..3 {
                    let r = next();
                    bytes[r as usize % wire.len()] ^= (r >> 32) as u8 | 1;
                }
                let Ok((m, x)) = Message::decode(&bytes) else {
                    continue;
                };
                decoded += 1;
                // Names in a FEATURES_REPLY are read lossily: only the
                // corpus's own types must re-encode to themselves.
                if matches!(
                    m,
                    Message::FlowMod(_) | Message::PacketOut(_) | Message::StatsReply(_)
                ) {
                    assert_eq!(Message::decode(&m.encode(x)), Ok((m, x)), "{bytes:02x?}");
                }
            }
        }
    }
    assert!(decoded > 0, "no flipped message decoded");
}

// ---------------- OpenFlow match & flow table ----------------

fn arb_of_match() -> impl Strategy<Value = osnt::openflow::OfMatch> {
    use osnt::openflow::match_field::wildcards;
    use osnt::openflow::OfMatch;
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        1u16..,
        1u16..,
        0u8..=32,
        0u8..=32,
    )
        .prop_map(|(dst, src, wc_bits, tp_src, tp_dst, src_len, dst_len)| {
            let mut m = OfMatch::any();
            m.dl_type = 0x0800;
            m.nw_dst = Ipv4Addr::from(dst);
            m.nw_src = Ipv4Addr::from(src);
            m.tp_src = tp_src;
            m.tp_dst = tp_dst;
            // Randomly expose some exact-match fields.
            if wc_bits & 1 != 0 {
                m.wildcards &= !wildcards::DL_TYPE;
            }
            if wc_bits & 2 != 0 {
                m.wildcards &= !wildcards::TP_SRC;
            }
            if wc_bits & 4 != 0 {
                m.wildcards &= !wildcards::TP_DST;
            }
            m.set_nw_src_prefix(src_len);
            m.set_nw_dst_prefix(dst_len);
            m
        })
}

proptest! {
    #[test]
    fn of_match_wire_roundtrip(m in arb_of_match()) {
        use osnt::openflow::OfMatch;
        let mut buf = Vec::new();
        m.write_to(&mut buf);
        prop_assert_eq!(OfMatch::parse(&buf).unwrap(), m);
    }

    #[test]
    fn covers_is_reflexive_and_any_covers_all(m in arb_of_match()) {
        use osnt::switch::flowtable::covers;
        use osnt::openflow::OfMatch;
        prop_assert!(covers(&m, &m));
        prop_assert!(covers(&OfMatch::any(), &m));
    }

    #[test]
    fn covering_filter_matches_superset_of_packets(
        m in arb_of_match(),
        dst in any::<u32>(),
        dport in 1u16..,
    ) {
        // If `any` state: for every packet the entry matches, a covering
        // filter must match too. Test with the wide filter = entry with
        // one more wildcarded field.
        use osnt::openflow::match_field::wildcards;
        let pkt = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::from(dst))
            .udp(5001, dport)
            .build();
        let mut wide = m;
        wide.wildcards |= wildcards::TP_DST; // strictly wider or equal
        if m.matches(1, &pkt.parse()) {
            prop_assert!(wide.matches(1, &pkt.parse()));
        }
        prop_assert!(osnt::switch::flowtable::covers(&wide, &m));
    }

    #[test]
    fn flow_table_lookup_respects_priority(
        prios in proptest::collection::vec(0u16..1000, 2..20),
    ) {
        use osnt::openflow::{Action, OfMatch};
        use osnt::switch::{FlowEntry, FlowTable};
        use osnt::time::SimTime;
        // All entries match everything; lookup must return the highest
        // priority.
        let mut t = FlowTable::new(prios.len());
        for (i, p) in prios.iter().enumerate() {
            // Distinct cookies so identical (match, priority) replacing
            // doesn't confuse the expectation: track the max that
            // survives.
            let mut e = FlowEntry::new(
                OfMatch::any(),
                *p,
                vec![Action::Output { port: (i % 4 + 1) as u16, max_len: 0 }],
                SimTime::ZERO,
            );
            e.cookie = i as u64;
            t.add(e).unwrap();
        }
        let pkt = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2))
            .ipv4(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2))
            .udp(1, 2)
            .build();
        let best = t.lookup(1, &pkt.parse()).unwrap().priority;
        // Duplicated (match, priority) pairs replace in place, so the
        // best priority is still the max of the list.
        prop_assert_eq!(best, *prios.iter().max().unwrap());
    }
}

// ---------------- latency summaries ----------------

proptest! {
    #[test]
    fn summary_percentiles_are_ordered(samples in proptest::collection::vec(0u64..10_000_000, 1..200)) {
        use osnt::core::Summary;
        let d: Vec<SimDuration> = samples.iter().map(|&n| SimDuration::from_ns(n)).collect();
        let s = Summary::from_durations(&d).unwrap();
        prop_assert!(s.min_ns <= s.p50_ns);
        prop_assert!(s.p50_ns <= s.p90_ns);
        prop_assert!(s.p90_ns <= s.p99_ns);
        prop_assert!(s.p99_ns <= s.max_ns);
        prop_assert!(s.min_ns <= s.mean_ns && s.mean_ns <= s.max_ns);
        prop_assert_eq!(s.count, samples.len());
    }
}

// ---------------- streaming summary parity ----------------

proptest! {
    /// `StreamingSummary` must agree with the exact collect-and-sort
    /// `Summary` on any sample sequence: count/min/max/mean/jitter
    /// bit-for-bit (same accumulation order), stddev to floating-point
    /// association, percentiles within the documented 1/256 relative
    /// error bound.
    #[test]
    fn streaming_summary_matches_exact_summary(
        samples in proptest::collection::vec(1u64..20_000_000_000, 1..400),
    ) {
        use osnt::core::{StreamingSummary, Summary};
        let d: Vec<SimDuration> = samples.iter().map(|&p| SimDuration::from_ps(p)).collect();
        let exact = Summary::from_durations(&d).unwrap();
        let mut stream = StreamingSummary::new();
        for s in &d {
            stream.record(*s);
        }
        let got = stream.finish().unwrap();
        prop_assert_eq!(got.count, exact.count);
        prop_assert_eq!(got.min_ns, exact.min_ns);
        prop_assert_eq!(got.max_ns, exact.max_ns);
        prop_assert_eq!(got.mean_ns, exact.mean_ns);
        prop_assert_eq!(got.jitter_ns, exact.jitter_ns);
        let sd_tol = 1e-6 * exact.stddev_ns.max(1.0);
        prop_assert!((got.stddev_ns - exact.stddev_ns).abs() <= sd_tol,
            "stddev {} vs {}", got.stddev_ns, exact.stddev_ns);
        for (g, e) in [(got.p50_ns, exact.p50_ns), (got.p90_ns, exact.p90_ns), (got.p99_ns, exact.p99_ns)] {
            let rel = (g - e).abs() / e.max(1e-9);
            prop_assert!(rel <= 1.0 / 256.0 + 1e-12, "quantile rel error {rel}: {g} vs {e}");
        }
    }

    /// Chunked merge: splitting a stream into chunks, summarising each
    /// independently and merging must reproduce the single-stream
    /// result — and the merge must be order-independent for everything
    /// except jitter (whose boundary terms depend on concatenation
    /// order by definition).
    #[test]
    fn streaming_merge_is_order_independent(
        samples in proptest::collection::vec(1u64..20_000_000_000, 2..400),
        cuts in proptest::collection::vec(1usize..100, 1..4),
    ) {
        use osnt::core::StreamingSummary;
        // Split into chunks at pseudo-random boundaries.
        let mut chunks: Vec<&[u64]> = Vec::new();
        let mut rest: &[u64] = &samples;
        for c in &cuts {
            if rest.len() <= 1 { break; }
            let at = 1 + (c % (rest.len() - 1));
            let (head, tail) = rest.split_at(at);
            chunks.push(head);
            rest = tail;
        }
        chunks.push(rest);
        let summarise = |xs: &[u64]| {
            let mut s = StreamingSummary::new();
            for &p in xs { s.record_ps(p); }
            s
        };
        let mut whole = StreamingSummary::new();
        for &p in &samples { whole.record_ps(p); }
        let whole = whole.finish().unwrap();

        // Merge in chunk order: everything agrees (jitter included —
        // concatenation of adjacent chunks is the original sequence).
        let mut fwd = StreamingSummary::new();
        for c in &chunks { fwd.merge(&summarise(c)); }
        let fwd = fwd.finish().unwrap();
        prop_assert_eq!(fwd.count, whole.count);
        prop_assert_eq!(fwd.min_ns, whole.min_ns);
        prop_assert_eq!(fwd.max_ns, whole.max_ns);
        prop_assert_eq!(fwd.p50_ns, whole.p50_ns);
        prop_assert_eq!(fwd.p90_ns, whole.p90_ns);
        prop_assert_eq!(fwd.p99_ns, whole.p99_ns);
        let tol = 1e-6 * whole.mean_ns.max(1.0);
        prop_assert!((fwd.mean_ns - whole.mean_ns).abs() <= tol);
        prop_assert!((fwd.jitter_ns - whole.jitter_ns).abs() <= 1e-6 * whole.jitter_ns.max(1.0));

        // Merge in reversed chunk order: count/min/max and the
        // histogram-derived percentiles are exactly order-independent.
        let mut rev = StreamingSummary::new();
        for c in chunks.iter().rev() { rev.merge(&summarise(c)); }
        let rev = rev.finish().unwrap();
        prop_assert_eq!(rev.count, whole.count);
        prop_assert_eq!(rev.min_ns, whole.min_ns);
        prop_assert_eq!(rev.max_ns, whole.max_ns);
        prop_assert_eq!(rev.p50_ns, whole.p50_ns);
        prop_assert_eq!(rev.p90_ns, whole.p90_ns);
        prop_assert_eq!(rev.p99_ns, whole.p99_ns);
        prop_assert!((rev.mean_ns - whole.mean_ns).abs() <= tol);
    }

    /// Compiled wildcard rules agree with the interpreter on arbitrary
    /// generated frames and rules (the flow-key lowering is exact).
    #[test]
    fn compiled_rule_matches_interpreter(
        src in arb_mac(), dst in arb_mac(),
        sip in arb_ipv4(), dip in arb_ipv4(),
        sport in 0u16..3, dport in 0u16..3,
        // The vendored proptest stand-in has no Option strategies:
        // sentinel values encode "field not named by the rule".
        rule_sport in 0u16..4, // 3 = absent
        rule_dport in 0u16..4, // 3 = absent
        rule_proto in 0u8..3,  // 0 = absent, 1 = TCP, 2 = UDP
        plen in 0u8..34,       // 33 = absent
    ) {
        use osnt::packet::{CompiledRule, FlowKey, WildcardRule};
        use osnt::packet::wildcard::IpPrefix;
        let pkt = PacketBuilder::ethernet(src, dst)
            .ipv4(sip, dip)
            .udp(sport, dport)
            .build();
        let mut rule = WildcardRule::any();
        if rule_sport < 3 { rule = rule.with_src_port(rule_sport); }
        if rule_dport < 3 { rule = rule.with_dst_port(rule_dport); }
        match rule_proto {
            1 => rule = rule.with_ip_protocol(6),
            2 => rule = rule.with_ip_protocol(17),
            _ => {}
        }
        if plen <= 32 {
            rule = rule.with_src_ip(IpPrefix::new(std::net::IpAddr::V4(sip), plen));
        }
        let parsed = pkt.parse();
        let key = FlowKey::extract(&parsed);
        prop_assert_eq!(
            CompiledRule::compile(&rule).matches(&key),
            rule.matches(&parsed)
        );
    }
}

// ---------------- flow keys from bytes ----------------

/// The flow key as a plain walk over a parse's `Option` fields, in the
/// word layout `osnt_packet::flowkey` documents: the reference both
/// extractors are held to.
fn key_by_parse_walk(p: &osnt::packet::ParsedPacket<'_>) -> [u64; 8] {
    use osnt::packet::flowkey::flag;
    use osnt::packet::parser::L3;
    let mac = |m: MacAddr| m.octets().iter().fold(0u64, |a, &b| (a << 8) | b as u64);
    let mut w = [0u64; 8];
    if let Some(eth) = p.ethernet {
        w[7] |= flag::HAS_ETH;
        w[0] = mac(eth.src) | (p.effective_ethertype().unwrap() as u64) << 48;
        w[1] = mac(eth.dst);
    }
    if let Some(tag) = p.vlan {
        w[7] |= flag::HAS_VLAN;
        w[1] |= (tag.vid as u64) << 48;
    }
    match p.l3 {
        Some(L3::Ipv4(h)) => {
            w[7] |= flag::HAS_IP | flag::IS_V4;
            w[3] = u32::from(h.src) as u64;
            w[5] = u32::from(h.dst) as u64;
        }
        Some(L3::Ipv6(h)) => {
            w[7] |= flag::HAS_IP | flag::IS_V6;
            let (s, d) = (u128::from(h.src), u128::from(h.dst));
            (w[2], w[3], w[4], w[5]) = ((s >> 64) as u64, s as u64, (d >> 64) as u64, d as u64);
        }
        _ => {}
    }
    if let Some(l4) = p.l4 {
        w[7] |= flag::HAS_L4;
        w[6] = l4.src_port as u64 | (l4.dst_port as u64) << 16 | (l4.protocol as u64) << 32;
    }
    w
}

proptest! {
    /// `FlowKey::of_bytes` reads a frame in one pass and `FlowKey::extract`
    /// packs a parse; both must equal the walk over the parse on any
    /// bytes: raw strings, and built UDP / TCP / ICMP / IPv6 frames, tagged
    /// or not, with bytes flipped, the EtherType forced and the frame cut
    /// anywhere.
    #[test]
    fn flow_key_from_bytes_matches_the_parse_walk(
        shape in (0u8..6, any::<bool>(), 0u16..4096, 0u8..4),
        raw in proptest::collection::vec(any::<u8>(), 0..97),
        addrs in (any::<[u8; 16]>(), any::<[u8; 16]>(), any::<u32>()),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 1..4),
        cut in any::<usize>(),
    ) {
        use osnt::packet::{FlowKey, ParsedPacket};
        use std::net::Ipv6Addr;
        let (kind, tagged, vid, forced) = shape;
        let (s6, d6, ports) = addrs;
        let (s4, d4) = (Ipv4Addr::from(ports), Ipv4Addr::from(ports.rotate_left(7)));
        let (sport, dport) = ((ports >> 16) as u16, ports as u16);
        let mut bytes = if kind == 0 {
            raw
        } else {
            let mut b = PacketBuilder::ethernet(MacAddr::local(1), MacAddr::local(2));
            if tagged {
                b = b.vlan(vid);
            }
            b = match kind {
                1..=3 => b.ipv4(s4, d4),
                _ => b.ipv6(Ipv6Addr::from(s6), Ipv6Addr::from(d6)),
            };
            b = match kind {
                1 | 4 => b.udp(sport, dport),
                2 | 5 => b.tcp(sport, dport, ports),
                _ => b.icmp_echo(sport, dport),
            };
            let mut bytes = b.payload(&raw).build().into_vec();
            for &(at, mask) in &flips {
                let at = at % bytes.len();
                bytes[at] ^= mask;
            }
            bytes
        };
        // Force the EtherType a parse reads next (the inner one when
        // tagged) onto a tag or an IP version the bytes may not hold.
        let at = if tagged { 16 } else { 12 };
        if let Some(t) = [0x8100u16, 0x0800, 0x86DD].get(forced as usize) {
            if let Some(field) = bytes.get_mut(at..at + 2) {
                field.copy_from_slice(&t.to_be_bytes());
            }
        }
        bytes.truncate(cut % (bytes.len() + 1));
        let parsed = ParsedPacket::parse(&bytes);
        let want = key_by_parse_walk(&parsed);
        let got = FlowKey::of_bytes(&bytes).words;
        prop_assert!(got == want, "frame {bytes:02x?}\n of_bytes {got:x?}\n walk {want:x?}");
        prop_assert_eq!(FlowKey::extract(&parsed).words, want);
    }
}
