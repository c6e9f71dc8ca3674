//! Length-prefixed framing over the [`sbft_wire`] codec.
//!
//! Every frame on a connection is a 4-byte little-endian length followed
//! by that many payload bytes; payloads are [`Wire`] encodings. The fixed
//! header keeps byte accounting exact: a message `m` costs precisely
//! `m.wire_len() + FRAME_HEADER_BYTES` bytes on the socket, so the
//! transport's counters line up with the simulator's (§II's linearity
//! property is measured in bytes either way).
//!
//! The first frame on every connection is a [`Handshake`] naming the
//! dialing node, so the acceptor can attribute inbound traffic. This is
//! identification, not authentication — protocol messages carry their own
//! signatures, which is what SBFT actually relies on.

use std::io::{self, Read, Write};

use sbft_wire::{Decoder, Encoder, Wire};

/// Bytes of framing overhead per message (the u32 length prefix).
pub const FRAME_HEADER_BYTES: usize = 4;

/// Default cap on a single frame's payload. Generous: the largest routine
/// message is a batched pre-prepare, well under a megabyte.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Magic bytes opening every handshake.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"SBFT";

/// Framing protocol version.
pub const HANDSHAKE_VERSION: u16 = 1;

/// The first frame on every connection: identifies the dialing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// The dialer's node id (replica ids first, then clients, matching
    /// the simulator's numbering).
    pub node_id: u64,
}

impl Wire for Handshake {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&HANDSHAKE_MAGIC);
        enc.put_u16(HANDSHAKE_VERSION);
        enc.put_u64(self.node_id);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, sbft_wire::DecodeError> {
        let magic = dec.get_array::<4>()?;
        if magic != HANDSHAKE_MAGIC {
            return Err(sbft_wire::DecodeError::InvalidValue {
                what: "handshake magic",
            });
        }
        let version = dec.get_u16()?;
        if version != HANDSHAKE_VERSION {
            return Err(sbft_wire::DecodeError::InvalidValue {
                what: "handshake version",
            });
        }
        Ok(Handshake {
            node_id: dec.get_u64()?,
        })
    }
}

/// Total bytes a payload occupies on the socket, header included.
pub fn framed_len(payload: &[u8]) -> usize {
    FRAME_HEADER_BYTES + payload.len()
}

/// Appends one frame (header + payload) to `buf` without touching a
/// socket; returns the exact framed byte count appended. This is the
/// building block of coalesced writes: encode many frames into one
/// buffer, then hit the socket once.
///
/// # Errors
///
/// Rejects payloads over `u32::MAX` bytes as
/// [`io::ErrorKind::InvalidInput`] (nothing is appended in that case).
pub fn encode_frame_into(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<usize> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(framed_len(payload))
}

/// Writes one frame; returns the exact byte count put on the wire.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over `u32::MAX` bytes as
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<usize> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    Ok(framed_len(payload))
}

/// Encodes every payload into `scratch` and writes the lot with a single
/// `write_all` — many frames, one syscall. Frame order is preserved, and
/// the returned byte count is exactly `Σ framed_len(payload)`, so byte
/// accounting is identical to calling [`write_frame`] per payload.
///
/// # Errors
///
/// Propagates I/O errors; rejects any payload over `u32::MAX` bytes as
/// [`io::ErrorKind::InvalidInput`] *before* writing anything.
pub fn write_frames<W, P>(w: &mut W, payloads: &[P], scratch: &mut Vec<u8>) -> io::Result<usize>
where
    W: Write,
    P: AsRef<[u8]>,
{
    scratch.clear();
    let mut total = 0;
    for payload in payloads {
        total += encode_frame_into(scratch, payload.as_ref())?;
    }
    w.write_all(scratch)?;
    Ok(total)
}

/// The length-prefix parser, without I/O: bytes go in through
/// [`FrameParser::read_from`] (one `read` call each), whole frames come
/// out of [`FrameParser::next_frame`]. The blocking [`FrameReader`] and
/// the transport's non-blocking event loop both run on it, so the two
/// cannot disagree about the format.
///
/// A read-ahead buffer lets one `read` surface many small frames. A
/// frame larger than the buffer is read straight into its own
/// allocation, so `max_frame` may exceed the buffer. Every returned
/// payload consumed precisely `framed_len(payload)` bytes.
pub struct FrameParser {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
    /// A frame larger than `buf` being filled in place: its payload
    /// allocation and how many payload bytes have arrived.
    oversized: Option<(Vec<u8>, usize)>,
}

impl FrameParser {
    /// A parser with a read-ahead buffer of `buffer` bytes (floored at
    /// one header) and a per-frame payload cap of `max_frame`.
    pub fn new(buffer: usize, max_frame: usize) -> Self {
        FrameParser {
            buf: vec![0u8; buffer.max(FRAME_HEADER_BYTES)],
            start: 0,
            end: 0,
            max_frame,
            oversized: None,
        }
    }

    /// True when no part of a frame is buffered: an end-of-stream now is
    /// a clean close, anywhere else it truncated a frame.
    pub fn is_idle(&self) -> bool {
        self.start == self.end && self.oversized.is_none()
    }

    /// Makes one `read` call on `r` into the free space — or into the
    /// oversized frame being filled — and returns its result: the byte
    /// count, `0` at end of stream.
    ///
    /// # Errors
    ///
    /// Whatever the `read` call returned, `WouldBlock` and `Interrupted`
    /// included; nothing was consumed in that case.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if let Some((payload, filled)) = &mut self.oversized {
            let n = r.read(&mut payload[*filled..])?;
            *filled += n;
            return Ok(n);
        }
        if self.start > 0 {
            // Move the partial frame (usually a few bytes) to the front so
            // the free space is contiguous.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next complete frame, if the bytes read so far hold one.
    ///
    /// # Errors
    ///
    /// A length prefix over `max_frame` is [`io::ErrorKind::InvalidData`];
    /// the stream cannot be resynchronised after it.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if let Some((payload, filled)) = &self.oversized {
            if *filled < payload.len() {
                return Ok(None);
            }
            return Ok(self.oversized.take().map(|(payload, _)| payload));
        }
        let buffered = &self.buf[self.start..self.end];
        let Some(header) = buffered.first_chunk::<FRAME_HEADER_BYTES>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > self.max_frame {
            // Rejected before anything is allocated for it.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds cap of {}", self.max_frame),
            ));
        }
        let body = &buffered[FRAME_HEADER_BYTES..];
        if FRAME_HEADER_BYTES + len > self.buf.len() {
            // Larger than the buffer: what has arrived moves into the
            // frame's own allocation, the rest is read straight into it.
            let mut payload = vec![0u8; len];
            payload[..body.len()].copy_from_slice(body);
            self.oversized = Some((payload, body.len()));
            self.start = 0;
            self.end = 0;
            return Ok(None);
        }
        if body.len() < len {
            return Ok(None);
        }
        let payload = body[..len].to_vec();
        self.start += FRAME_HEADER_BYTES + len;
        Ok(Some(payload))
    }
}

/// Blocking frame decoder over any [`Read`]: a [`FrameParser`] fed by
/// `read` calls on `inner`, so one `read` syscall can surface many
/// small frames. A clean close between frames is `Ok(None)`, a close
/// mid-frame is [`io::ErrorKind::UnexpectedEof`], and a length prefix
/// over `max_frame` is [`io::ErrorKind::InvalidData`] (a corrupt or
/// hostile length prefix must not make us allocate unboundedly).
pub struct FrameReader<R> {
    inner: R,
    parser: FrameParser,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with a read-ahead buffer of `buffer` bytes (floored
    /// at one header) and a per-frame payload cap of `max_frame`.
    pub fn new(inner: R, buffer: usize, max_frame: usize) -> Self {
        FrameReader {
            inner,
            parser: FrameParser::new(buffer, max_frame),
        }
    }

    /// Reads the next frame; `Ok(None)` on a clean close between frames.
    ///
    /// # Errors
    ///
    /// I/O errors propagate, oversized frames are
    /// [`io::ErrorKind::InvalidData`], truncation is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn read_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(payload) = self.parser.next_frame()? {
                return Ok(Some(payload));
            }
            if self.parser.read_from(&mut self.inner)? == 0 {
                if self.parser.is_idle() {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
        }
    }

    /// Reads and decodes a [`Wire`] value from the next frame.
    ///
    /// # Errors
    ///
    /// As [`Self::read_frame`]; a clean close before the frame is
    /// [`io::ErrorKind::UnexpectedEof`], decode failures are
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_msg<M: Wire>(&mut self) -> io::Result<M> {
        let payload = self.read_frame()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before frame",
            )
        })?;
        M::from_wire_bytes(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Writes a [`Wire`] value as one frame; returns bytes put on the wire.
///
/// # Errors
///
/// Propagates I/O errors from [`write_frame`].
pub fn write_msg<M: Wire>(w: &mut impl Write, msg: &M) -> io::Result<usize> {
    write_frame(w, &msg.to_wire_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Reads one frame from `wire` through a header-sized buffer, so any
    /// payload takes the parser's direct-read path.
    fn read_frame(wire: &[u8], max_frame: usize) -> io::Result<Option<Vec<u8>>> {
        FrameReader::new(wire, FRAME_HEADER_BYTES, max_frame).read_frame()
    }

    #[test]
    fn frame_round_trip_with_exact_accounting() {
        let payload = b"hello sbft".to_vec();
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &payload).unwrap();
        assert_eq!(written, payload.len() + FRAME_HEADER_BYTES);
        assert_eq!(written, framed_len(&payload));
        assert_eq!(buf.len(), written, "accounting matches bytes on the wire");
        let back = read_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn empty_frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[]).unwrap();
        assert_eq!(buf.len(), FRAME_HEADER_BYTES);
        let back = read_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn clean_close_is_none_mid_header_is_error() {
        let empty: &[u8] = &[];
        assert!(read_frame(empty, 64).unwrap().is_none());
        let partial: &[u8] = &[3, 0];
        let err = read_frame(partial, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let err = read_frame(&buf, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 32]).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_frame(&buf, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A reader that hands back the underlying bytes in capricious chunk
    /// sizes — frames land split across reads, headers straddle refills.
    struct SplitReader {
        data: Vec<u8>,
        pos: usize,
        rng: u64,
    }

    impl Read for SplitReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.data.len() {
                return Ok(0);
            }
            let cap = out.len().min(self.data.len() - self.pos);
            let n = (splitmix(&mut self.rng) as usize % cap).max(1).min(cap);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn batched_frames_round_trip_through_split_reads() {
        // Random frame-size sequences: empty frames, tiny frames, frames
        // larger than the reader's buffer (exercising the direct-read
        // fallback), in random order, written as coalesced batches.
        for seed in 0..8u64 {
            let mut rng = 0x5bf7_0000 ^ seed;
            let mut payloads: Vec<Vec<u8>> = Vec::new();
            for _ in 0..64 {
                let len = match splitmix(&mut rng) % 4 {
                    0 => 0,
                    1 => (splitmix(&mut rng) % 16) as usize,
                    2 => (splitmix(&mut rng) % 500) as usize,
                    // Bigger than the 256-byte reader buffer below.
                    _ => 256 + (splitmix(&mut rng) % 2048) as usize,
                };
                payloads.push((0..len).map(|_| splitmix(&mut rng) as u8).collect());
            }

            // Write in coalesced batches of random sizes.
            let mut wire = Vec::new();
            let mut scratch = Vec::new();
            let mut written = 0;
            let mut i = 0;
            while i < payloads.len() {
                let batch = 1 + (splitmix(&mut rng) % 7) as usize;
                let end = (i + batch).min(payloads.len());
                written += write_frames(&mut wire, &payloads[i..end], &mut scratch).unwrap();
                i = end;
            }
            let expected: usize = payloads.iter().map(|p| framed_len(p)).sum();
            assert_eq!(written, expected, "batched accounting is exact");
            assert_eq!(wire.len(), expected, "accounting matches the wire");

            // Read back through a buffer smaller than the biggest frame,
            // fed by reads split at random boundaries.
            let mut reader = FrameReader::new(
                SplitReader {
                    data: wire,
                    pos: 0,
                    rng: seed ^ 0xdead_beef,
                },
                256,
                DEFAULT_MAX_FRAME,
            );
            for (idx, expected) in payloads.iter().enumerate() {
                let got = reader
                    .read_frame()
                    .unwrap()
                    .unwrap_or_else(|| panic!("seed {seed}: stream ended before frame {idx}"));
                assert_eq!(&got, expected, "seed {seed}: frame {idx} round-trips");
            }
            assert!(
                reader.read_frame().unwrap().is_none(),
                "clean end of stream"
            );
        }
    }

    #[test]
    fn frame_reader_matches_read_frame_error_semantics() {
        // Clean close between frames: None.
        let empty = SplitReader {
            data: Vec::new(),
            pos: 0,
            rng: 1,
        };
        let mut r = FrameReader::new(empty, 64, 64);
        assert!(r.read_frame().unwrap().is_none());

        // Close mid-header: UnexpectedEof.
        let partial = SplitReader {
            data: vec![3, 0],
            pos: 0,
            rng: 1,
        };
        let mut r = FrameReader::new(partial, 64, 64);
        assert_eq!(
            r.read_frame().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );

        // Close mid-payload: UnexpectedEof, both for buffered frames and
        // for the oversized direct-read path.
        for frame_len in [32usize, 500] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &vec![7u8; frame_len]).unwrap();
            wire.truncate(wire.len() - 5);
            let mut r = FrameReader::new(
                SplitReader {
                    data: wire,
                    pos: 0,
                    rng: 2,
                },
                64,
                1024,
            );
            assert_eq!(
                r.read_frame().unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof,
                "truncated {frame_len}-byte frame"
            );
        }

        // Oversized length prefix: InvalidData, before any allocation.
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 100]).unwrap();
        let mut r = FrameReader::new(
            SplitReader {
                data: wire,
                pos: 0,
                rng: 3,
            },
            64,
            64,
        );
        assert_eq!(
            r.read_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// Hands out `data` as two reads, split at `at`.
    struct TwoReads {
        data: Vec<u8>,
        at: usize,
        pos: usize,
    }

    impl Read for TwoReads {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let stop = if self.pos < self.at {
                self.at
            } else {
                self.data.len()
            };
            let n = out.len().min(stop - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn parser_yields_the_same_frames_for_a_split_at_every_byte_offset() {
        // A handshake, then SplitMix64-sized frames: empty, small, and
        // larger than the 16-byte read buffer (filled in place).
        let mut rng = 0x5bf7_0001;
        let mut payloads = vec![Handshake { node_id: 3 }.to_wire_bytes()];
        for _ in 0..12 {
            let len = (splitmix(&mut rng) % 40) as usize;
            payloads.push((0..len).map(|_| splitmix(&mut rng) as u8).collect());
        }
        let mut wire = Vec::new();
        let mut boundaries = vec![0];
        for payload in &payloads {
            write_frame(&mut wire, payload).unwrap();
            boundaries.push(wire.len());
        }
        for at in 0..=wire.len() {
            let mut reader = TwoReads {
                data: wire.clone(),
                at,
                pos: 0,
            };
            let mut parser = FrameParser::new(16, 64);
            let mut got = Vec::new();
            loop {
                while let Some(payload) = parser.next_frame().unwrap() {
                    got.push(payload);
                }
                if reader.pos == at {
                    // Everything before the split has arrived: the parser
                    // is idle exactly when the split is on a boundary
                    // (an end of stream here would be clean).
                    assert_eq!(parser.is_idle(), boundaries.contains(&at), "split {at}");
                }
                if parser.read_from(&mut reader).unwrap() == 0 {
                    break;
                }
            }
            assert!(parser.is_idle(), "split {at}: clean end of stream");
            assert_eq!(got, payloads, "split {at}");
            let hs = Handshake::from_wire_bytes(&got[0]).unwrap();
            assert_eq!(hs.node_id, 3, "split {at}: handshake survives the split");
        }
    }

    #[test]
    fn parser_rejects_an_oversized_length_before_allocating() {
        let mut parser = FrameParser::new(16, 64);
        let mut wire = Vec::new();
        write_frame(&mut wire, b"ok").unwrap();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        parser.read_from(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(parser.next_frame().unwrap().unwrap(), b"ok");
        assert_eq!(
            parser.next_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn handshake_round_trip_and_validation() {
        let hs = Handshake { node_id: 42 };
        let mut buf = Vec::new();
        write_msg(&mut buf, &hs).unwrap();
        let back: Handshake = FrameReader::new(&buf[..], 64, 64).read_msg().unwrap();
        assert_eq!(back, hs);

        // Corrupt the magic: must be rejected, not misread.
        let mut bad = buf.clone();
        bad[FRAME_HEADER_BYTES] = b'X';
        let err = FrameReader::new(&bad[..], 64, 64)
            .read_msg::<Handshake>()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
