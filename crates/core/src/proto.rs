//! Wire format of pooling control messages.
//!
//! Every message fits one ring slot ([`SLOT_PAYLOAD`], 54 bytes), so
//! each one — a doorbell forward, a completion, an orchestrator RPC —
//! costs exactly one non-temporal store on the sender and one load on
//! the receiver. Encoding is a hand-rolled
//! little-endian TLV: `[kind: u8][fields…]`; no self-describing overhead.

use cxl_fabric::HostId;
use pcie_sim::DeviceId;
use shmem::ring::SLOT_PAYLOAD;
use simkit::trace;

use crate::vdev::DeviceKind;

/// One pooled I/O command: what a host asks a device to do, whether it
/// drives the device itself (the local fast path) or forwards the
/// command to the device's attach host in a [`Msg::Submit`]. Buffers
/// are pool addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmd {
    /// NIC transmit of `len` bytes from `buf`.
    Tx {
        /// Pool address of the TX payload.
        buf: u64,
        /// Payload length.
        len: u32,
    },
    /// NIC RX buffer post.
    RxPost {
        /// Pool address of the RX buffer.
        buf: u64,
        /// Buffer capacity.
        len: u32,
    },
    /// NVMe read of `blocks` blocks from `lba` into `buf`.
    SsdRead {
        /// Starting logical block.
        lba: u64,
        /// Block count.
        blocks: u32,
        /// Destination pool buffer.
        buf: u64,
    },
    /// NVMe write of `blocks` blocks from `buf` to `lba`.
    SsdWrite {
        /// Starting logical block.
        lba: u64,
        /// Block count.
        blocks: u32,
        /// Source pool buffer.
        buf: u64,
    },
    /// Accelerator job over `len` input bytes.
    Accel {
        /// Input pool buffer.
        inbuf: u64,
        /// Input length.
        len: u32,
        /// Output pool buffer.
        outbuf: u64,
    },
}

impl Cmd {
    /// The device class the command runs on.
    pub fn kind(&self) -> DeviceKind {
        match self {
            Cmd::Tx { .. } | Cmd::RxPost { .. } => DeviceKind::Nic,
            Cmd::SsdRead { .. } | Cmd::SsdWrite { .. } => DeviceKind::Ssd,
            Cmd::Accel { .. } => DeviceKind::Accel,
        }
    }

    /// The flight recorder's op-kind code for the command.
    pub fn trace_kind(&self) -> u8 {
        match self.kind() {
            DeviceKind::Nic => trace::KIND_NIC,
            DeviceKind::Ssd => trace::KIND_SSD,
            DeviceKind::Accel => trace::KIND_ACCEL,
        }
    }

    /// Wire kind byte of the `Submit` carrying the command.
    fn wire_kind(&self) -> u8 {
        match self {
            Cmd::Tx { .. } => 1,
            Cmd::RxPost { .. } => 2,
            Cmd::SsdRead { .. } => 3,
            Cmd::SsdWrite { .. } => 4,
            Cmd::Accel { .. } => 5,
        }
    }
}

/// A pooling control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Msg {
    /// A forwarded command for device `dev` on the receiving host.
    Submit {
        /// Operation id for completion matching.
        op: u64,
        /// Target device.
        dev: DeviceId,
        /// What to do.
        cmd: Cmd,
    },
    /// Completion of a forwarded operation.
    Done {
        /// Operation id being completed.
        op: u64,
        /// 0 = success; nonzero maps to a device error class.
        status: u8,
        /// Device-reported completion time (ns).
        at: u64,
    },
    /// Agent → orchestrator: a local device failed.
    DevFailed {
        /// The failed device.
        dev: DeviceId,
        /// Detection time (ns).
        at: u64,
    },
    /// Orchestrator → agent: (re)assign `host`'s device of this kind.
    Assign {
        /// The host whose binding changes.
        host: HostId,
        /// Device kind discriminant (see [`crate::vdev::DeviceKind`]).
        kind: u8,
        /// The newly assigned device.
        dev: DeviceId,
    },
    /// Attach agent → buffer owner: a frame landed in your RX buffer.
    RxDone {
        /// Pool address of the filled buffer.
        buf: u64,
        /// Frame length.
        len: u32,
        /// Time the DMA write was visible (ns).
        at: u64,
    },
}

/// Errors from [`Msg::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer was shorter than the fixed layout for its kind.
    Truncated,
    /// Unknown kind byte.
    BadKind(u8),
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "message truncated"),
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let v = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        let s = self
            .buf
            .get(self.pos..self.pos + 2)
            .ok_or(DecodeError::Truncated)?;
        self.pos += 2;
        Ok(u16::from_le_bytes(s.try_into().expect("2 bytes")))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or(DecodeError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(DecodeError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
}

impl Msg {
    /// Stable short name of the message kind (used as the trace
    /// annotation on `proto/encode` events).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Msg::Submit { cmd, .. } => match cmd {
                Cmd::Tx { .. } => "TxSubmit",
                Cmd::RxPost { .. } => "RxPost",
                Cmd::SsdRead { .. } => "SsdRead",
                Cmd::SsdWrite { .. } => "SsdWrite",
                Cmd::Accel { .. } => "AccelRun",
            },
            Msg::Done { .. } => "Done",
            Msg::DevFailed { .. } => "DevFailed",
            Msg::Assign { .. } => "Assign",
            Msg::RxDone { .. } => "RxDone",
        }
    }

    /// Serializes to bytes (≤ 30 for every variant).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SLOT_PAYLOAD);
        match *self {
            Msg::Submit { op, dev, cmd } => {
                out.push(cmd.wire_kind());
                put_u64(&mut out, op);
                put_u32(&mut out, dev.0);
                match cmd {
                    Cmd::Tx { buf, len } | Cmd::RxPost { buf, len } => {
                        put_u64(&mut out, buf);
                        put_u32(&mut out, len);
                    }
                    Cmd::SsdRead { lba, blocks, buf } | Cmd::SsdWrite { lba, blocks, buf } => {
                        put_u64(&mut out, lba);
                        put_u32(&mut out, blocks);
                        put_u64(&mut out, buf);
                    }
                    Cmd::Accel { inbuf, len, outbuf } => {
                        put_u64(&mut out, inbuf);
                        put_u32(&mut out, len);
                        put_u64(&mut out, outbuf);
                    }
                }
            }
            Msg::Done { op, status, at } => {
                out.push(6);
                put_u64(&mut out, op);
                out.push(status);
                put_u64(&mut out, at);
            }
            Msg::DevFailed { dev, at } => {
                out.push(7);
                put_u32(&mut out, dev.0);
                put_u64(&mut out, at);
            }
            Msg::Assign { host, kind, dev } => {
                out.push(8);
                put_u16(&mut out, host.0);
                out.push(kind);
                put_u32(&mut out, dev.0);
            }
            Msg::RxDone { buf, len, at } => {
                out.push(11);
                put_u64(&mut out, buf);
                put_u32(&mut out, len);
                put_u64(&mut out, at);
            }
        }
        out
    }

    /// Parses a message from bytes.
    pub fn decode(buf: &[u8]) -> Result<Msg, DecodeError> {
        let mut r = Reader { buf, pos: 0 };
        let kind = r.u8()?;
        Ok(match kind {
            1..=5 => {
                let (op, dev) = (r.u64()?, DeviceId(r.u32()?));
                let (addr, n) = (r.u64()?, r.u32()?);
                let cmd = match kind {
                    1 => Cmd::Tx { buf: addr, len: n },
                    2 => Cmd::RxPost { buf: addr, len: n },
                    3 => Cmd::SsdRead {
                        lba: addr,
                        blocks: n,
                        buf: r.u64()?,
                    },
                    4 => Cmd::SsdWrite {
                        lba: addr,
                        blocks: n,
                        buf: r.u64()?,
                    },
                    _ => Cmd::Accel {
                        inbuf: addr,
                        len: n,
                        outbuf: r.u64()?,
                    },
                };
                Msg::Submit { op, dev, cmd }
            }
            6 => Msg::Done {
                op: r.u64()?,
                status: r.u8()?,
                at: r.u64()?,
            },
            7 => Msg::DevFailed {
                dev: DeviceId(r.u32()?),
                at: r.u64()?,
            },
            8 => Msg::Assign {
                host: HostId(r.u16()?),
                kind: r.u8()?,
                dev: DeviceId(r.u32()?),
            },
            11 => Msg::RxDone {
                buf: r.u64()?,
                len: r.u32()?,
                at: r.u64()?,
            },
            k => return Err(DecodeError::BadKind(k)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_variants() -> Vec<Msg> {
        vec![
            Msg::Submit {
                op: 1,
                dev: DeviceId(2),
                cmd: Cmd::Tx {
                    buf: 0xDEAD_BEEF,
                    len: 1500,
                },
            },
            Msg::Submit {
                op: 2,
                dev: DeviceId(3),
                cmd: Cmd::RxPost {
                    buf: 0x1000,
                    len: 2048,
                },
            },
            Msg::Submit {
                op: 3,
                dev: DeviceId(4),
                cmd: Cmd::SsdRead {
                    lba: 77,
                    blocks: 8,
                    buf: 0x2000,
                },
            },
            Msg::Submit {
                op: 4,
                dev: DeviceId(5),
                cmd: Cmd::SsdWrite {
                    lba: 99,
                    blocks: 1,
                    buf: 0x3000,
                },
            },
            Msg::Submit {
                op: 5,
                dev: DeviceId(6),
                cmd: Cmd::Accel {
                    inbuf: 0x4000,
                    len: 4096,
                    outbuf: 0x5000,
                },
            },
            Msg::Done {
                op: 6,
                status: 0,
                at: 123_456,
            },
            Msg::DevFailed {
                dev: DeviceId(7),
                at: 42,
            },
            Msg::Assign {
                host: HostId(3),
                kind: 1,
                dev: DeviceId(8),
            },
            Msg::RxDone {
                buf: 0x7000,
                len: 1500,
                at: 987_654,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for m in all_variants() {
            let bytes = m.encode();
            let back = Msg::decode(&bytes).expect("decode");
            assert_eq!(back, m);
        }
    }

    #[test]
    fn every_variant_fits_one_slot() {
        for m in all_variants() {
            assert!(
                m.encode().len() <= SLOT_PAYLOAD,
                "{m:?} is {} bytes",
                m.encode().len()
            );
        }
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        for m in all_variants() {
            let bytes = m.encode();
            for cut in 0..bytes.len() {
                assert_eq!(Msg::decode(&bytes[..cut]), Err(DecodeError::Truncated));
            }
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(Msg::decode(&[200, 0, 0]), Err(DecodeError::BadKind(200)));
        assert_eq!(Msg::decode(&[0]), Err(DecodeError::BadKind(0)));
        assert_eq!(Msg::decode(&[9, 0, 0, 0]), Err(DecodeError::BadKind(9)));
        assert_eq!(
            Msg::decode(&[10, 0, 0, 0, 0, 0]),
            Err(DecodeError::BadKind(10))
        );
    }

    proptest! {
        #[test]
        fn tx_submit_roundtrips(op in any::<u64>(), dev in any::<u32>(),
                                buf in any::<u64>(), len in any::<u32>()) {
            let m = Msg::Submit { op, dev: DeviceId(dev), cmd: Cmd::Tx { buf, len } };
            prop_assert_eq!(Msg::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn done_roundtrips(op in any::<u64>(), status in any::<u8>(), at in any::<u64>()) {
            let m = Msg::Done { op, status, at };
            prop_assert_eq!(Msg::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Msg::decode(&bytes);
        }
    }
}
