//! Golden vectors: one committed encoding per frame variant, plus the
//! traced forms of `Publish`/`Forward`/`Deliver` and `Connect` under every
//! slow-consumer policy. The hex was written by the broker's hand-written
//! encoder before the frame table replaced it, so these tests pin the wire
//! format byte for byte: the encoder must write each vector, and the
//! decoder must read it back to the same frame.

use multipub_core::assignment::DeliveryMode;
use multipub_proto::{decode, encode, Frame, Role, SlowConsumerPolicy, TraceContext, KNOWN_TAGS};
use std::collections::BTreeSet;
use std::time::Duration;

type Owned = Frame<Vec<u8>>;

fn connect(client_id: u64, role: Role, policy: Option<SlowConsumerPolicy>) -> Owned {
    Frame::Connect { client_id, role, policy }
}

fn vectors() -> Vec<(Owned, &'static str)> {
    let block = SlowConsumerPolicy::Block { deadline: Duration::from_millis(250) };
    let traced = TraceContext {
        trace_id: 0x1234_5678_9ABC_DEF0,
        sampled: true,
        admit_micros: 100,
        match_micros: 200,
        queue_micros: 300,
        write_micros: 400,
    };
    vec![
        (connect(77, Role::Subscriber, None), "0000000f01000000000000004d010000000000"),
        (connect(78, Role::Subscriber, Some(block)), "0000000f01000000000000004e0101000000fa"),
        (
            connect(79, Role::Publisher, Some(SlowConsumerPolicy::DropOldest)),
            "0000000f01000000000000004f000200000000",
        ),
        (
            connect(80, Role::Peer, Some(SlowConsumerPolicy::DropNewest)),
            "0000000f010000000000000050020300000000",
        ),
        (
            connect(81, Role::Controller, Some(SlowConsumerPolicy::Disconnect)),
            "0000000f010000000000000051030400000000",
        ),
        (Frame::ConnectAck { region: 9 }, "00000003020009"),
        (
            Frame::Subscribe {
                topic: "games/eu/chat".into(),
                filter: "price < 10".into(),
                qos: 1,
            },
            "0000001f03000d67616d65732f65752f636861740000000a7072696365203c20313001",
        ),
        (Frame::Unsubscribe { topic: "t".into() }, "0000000404000174"),
        (
            Frame::Publish {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 123_456_789,
                single_target: true,
                headers: "{\"price\":9.5}".into(),
                payload: b"hello world".to_vec(),
                trace: None,
                qos: 0,
                seq: 0,
                retain: false,
                epoch: 0,
            },
            "0000004d0500000673636f726573000000000000000c00000000075bcd15010000000d7b227072696365\
             223a392e357d0000000b68656c6c6f20776f726c64000000000000000000000000000000000000",
        ),
        (
            Frame::Publish {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 123_456_790,
                single_target: false,
                headers: String::new(),
                payload: b"traced".to_vec(),
                trace: Some(TraceContext::new(0xDEAD_BEEF_0000_0001)),
                qos: 1,
                seq: 7,
                retain: true,
                epoch: 3,
            },
            "000000640501deadbeef000000010100000000000000000000000000000000000000000000000000000000\
             00000000000673636f726573000000000000000c00000000075bcd16000000000000000006747261636564\
             010000000000000007010000000000000003",
        ),
        (
            Frame::Forward {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 42,
                origin_region: 3,
                headers: String::new(),
                payload: vec![0, 1, 2, 255],
                trace: None,
                qos: 0,
                seq: 0,
                retain: false,
            },
            "000000320600000673636f726573000000000000000c000000000000002a00030000000000000004000102\
             ff00000000000000000000",
        ),
        (
            Frame::Forward {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 43,
                origin_region: 3,
                headers: String::new(),
                payload: vec![7],
                trace: Some(traced),
                qos: 1,
                seq: u64::MAX,
                retain: true,
            },
            "000000580601123456789abcdef001000000000000006400000000000000c8000000000000012c00000000\
             00000190000673636f726573000000000000000c000000000000002b000300000000000000010701ffffff\
             ffffffffff01",
        ),
        (
            Frame::Deliver {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 42,
                headers: String::new(),
                payload: Vec::new(),
                trace: None,
                qos: 0,
                seq: 0,
                retained: false,
            },
            "0000002c0700000673636f726573000000000000000c000000000000002a00000000000000000000000000\
             0000000000",
        ),
        (
            Frame::Deliver {
                topic: "scores".into(),
                publisher: 12,
                publish_micros: 44,
                headers: "{\"k\":1}".into(),
                payload: b"x".to_vec(),
                trace: Some(TraceContext {
                    trace_id: 5,
                    sampled: false,
                    admit_micros: 1,
                    match_micros: 2,
                    queue_micros: 0,
                    write_micros: 0,
                }),
                qos: 1,
                seq: 9,
                retained: true,
            },
            "0000005d070100000000000000050000000000000000010000000000000002000000000000000000000000\
             00000000000673636f726573000000000000000c000000000000002c000000077b226b223a317d00000001\
             7801000000000000000901",
        ),
        (Frame::StatsRequest, "0000000108"),
        (
            Frame::StatsReport { json: "{\"topics\":{}}".into() },
            "00000012090000000d7b22746f70696373223a7b7d7d",
        ),
        (
            Frame::ConfigUpdate {
                topic: "scores".into(),
                mask: 0b1011,
                mode: DeliveryMode::Routed,
                epoch: 4,
            },
            "000000160a000673636f7265730000000b010000000000000004",
        ),
        (Frame::Ping { nonce: u64::MAX }, "000000090bffffffffffffffff"),
        (Frame::Pong { nonce: 0 }, "000000090c0000000000000000"),
        (Frame::StatsSnapshotRequest, "000000010d"),
        (
            Frame::StatsSnapshot { json: "{\"counters\":{}}".into() },
            "000000140e0000000f7b22636f756e74657273223a7b7d7d",
        ),
        (
            Frame::Busy { topic: "scores".into(), retry_after_ms: 125, seq: 3 },
            "000000150f000673636f7265730000007d0000000000000003",
        ),
        (Frame::PubAck { topic: "ticks".into(), seq: 41 }, "000000101000057469636b730000000000000029"),
        (
            Frame::DeliverAck { topic: "ticks".into(), publisher: 12, seq: 41 },
            "000000181100057469636b73000000000000000c0000000000000029",
        ),
        (
            Frame::HandoverPrepare {
                topic: "scores".into(),
                mask: 0b0110,
                mode: DeliveryMode::Direct,
                epoch: 0x0102_0304_0506_0708,
            },
            "0000001612000673636f72657300000006000102030405060708",
        ),
        (
            Frame::HandoverCommit { topic: "scores".into(), epoch: 5, grace_ms: 750 },
            "0000001513000673636f7265730000000000000005000002ee",
        ),
        (
            Frame::HandoverAbort { topic: "scores".into(), epoch: 5 },
            "0000001114000673636f7265730000000000000005",
        ),
        (
            Frame::HandoverAck { topic: "scores".into(), epoch: 5, phase: 1 },
            "0000001215000673636f726573000000000000000501",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn the_encoder_writes_every_golden_vector() {
    for (frame, vector) in vectors() {
        let mut wire = Vec::new();
        encode(&frame, &mut wire);
        assert_eq!(hex(&wire), vector, "{frame:?}");
    }
}

#[test]
fn the_decoder_reads_every_golden_vector_back() {
    for (frame, vector) in vectors() {
        let wire = unhex(vector);
        let (decoded, len) = decode(&wire).unwrap().unwrap();
        assert_eq!(len, wire.len());
        assert_eq!(decoded.map_payload(|range| wire[range].to_vec()), frame);
    }
}

#[test]
fn the_vectors_cover_every_tag_and_both_trace_forms() {
    let tags: BTreeSet<u8> = vectors().iter().map(|(frame, _)| frame.tag()).collect();
    assert_eq!(tags, KNOWN_TAGS.into_iter().collect());
    let traced = |frame: &Owned| match frame {
        Frame::Publish { trace, .. }
        | Frame::Forward { trace, .. }
        | Frame::Deliver { trace, .. } => Some(trace.is_some()),
        _ => None,
    };
    for tag in [0x05, 0x06, 0x07] {
        let forms: BTreeSet<Option<bool>> =
            vectors().iter().filter(|(f, _)| f.tag() == tag).map(|(f, _)| traced(f)).collect();
        assert_eq!(forms, BTreeSet::from([Some(false), Some(true)]), "tag {tag:#04x}");
    }
    let policies = vectors().iter().filter(|(f, _)| matches!(f, Frame::Connect { .. })).count();
    assert_eq!(policies, 5, "Connect with no policy and with each of the four");
}
