package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Datagram packet layer: the wire format the ARQ connection (dgconn.go)
// speaks over a lossy packet channel. Each UDP datagram carries exactly
// one packet; the stream frames of wire.go ride inside the reliable
// byte stream the ARQ layer reconstructs, so the two codecs never mix
// on the wire. Packet kinds deliberately avoid the stream frame kind
// bytes ('R','P','E','H','V','M','D') so a cross-fed byte is always an
// immediate decode error rather than a plausible packet.
//
// Wire formats (big-endian, CRC32-IEEE over every preceding byte):
//
//	DATA  'd' | conn(4) | seq(4) | len(2) | payload | crc32(4)
//	FIN   'f' | conn(4) | seq(4) | len(2)=0        | crc32(4)
//	ACK   'a' | conn(4) | cum(4) | bitmap(8)       | crc32(4)
//
// conn is the flow incarnation ID drawn fresh per dial: packets from a
// previous incarnation of the same 5-tuple fail the ID check and drop
// as stale duplicates instead of corrupting the live flow. seq numbers
// packets (not bytes) from 0 per direction; a FIN occupies a sequence
// slot so end-of-stream rides the same selective-repeat reliability as
// data. An ACK carries cum = the next sequence the receiver expects
// (everything below is delivered) plus a 64-bit selective-ack bitmap:
// bit i set means seq cum+1+i is held in the reassembly buffer.
const (
	dgKindData = 'd'
	dgKindFin  = 'f'
	dgKindAck  = 'a'
)

const (
	// dgDataHeader is kind+conn+seq+len; dgAckSize the full fixed-size
	// ACK packet; dgTrailer the CRC.
	dgDataHeader = 1 + 4 + 4 + 2
	dgAckSize    = 1 + 4 + 4 + 8 + 4
	dgTrailer    = 4

	// DatagramMTU is the default per-packet payload budget, sized so a
	// full DATA packet stays under common 1280-byte path MTUs with the
	// 15-byte header+trailer overhead.
	DatagramMTU = 1152

	// dgMaxPayload bounds what the decoder will accept, independent of
	// the sender's MTU setting — a corrupted length field must never
	// drive a large allocation.
	dgMaxPayload = 9216

	// dgSendWindow is the selective-repeat send window in packets. It
	// matches the 64-bit ACK bitmap exactly so every in-flight packet is
	// individually ackable, and fits inside the receiver's reassembly
	// window with room for one displaced window of duplicates.
	dgSendWindow = 64

	// dgSendRing is the send ring's slot count: one beyond the largest
	// window, for the FIN, which takes a sequence even when the window
	// is full.
	dgSendRing = dgSendWindow + 1

	// dgReassemblyWindow bounds receiver buffering: a packet at or past
	// rcvNext+window is a reorder overflow and tears the flow down. A
	// conforming sender never exceeds rcvNext+dgSendWindow, so overflow
	// only fires on channel displacement beyond a full extra window or
	// cross-incarnation traffic.
	dgReassemblyWindow = 128

	// dgGapRetransmit is the gap-evidence threshold for fast retransmit:
	// once a packet has been reported missing (unacked below a
	// selectively-acked higher sequence) this many times, it is resent
	// without waiting for its retransmission timeout.
	dgGapRetransmit = 2
)

// dgPacket is one decoded datagram.
type dgPacket struct {
	Kind byte
	Conn uint32 // flow incarnation ID
	// DATA/FIN fields.
	Seq     uint32
	Payload []byte // aliases the decode input; copy before retaining
	// ACK fields.
	Cum    uint32 // next sequence the receiver expects
	Bitmap uint64 // bit i: seq Cum+1+i held in reassembly
}

// appendDataPacket encodes a DATA (or, with empty payload and the FIN
// kind, a FIN) packet onto dst.
func appendDataPacket(dst []byte, kind byte, conn, seq uint32, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint32(dst, conn)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendAckPacket encodes an ACK packet onto dst.
func appendAckPacket(dst []byte, conn, cum uint32, bitmap uint64) []byte {
	start := len(dst)
	dst = append(dst, dgKindAck)
	dst = binary.BigEndian.AppendUint32(dst, conn)
	dst = binary.BigEndian.AppendUint32(dst, cum)
	dst = binary.BigEndian.AppendUint64(dst, bitmap)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// decodeDatagram parses and verifies one received datagram. Every
// failure wraps ErrCorrupt; a valid datagram must be exactly one whole
// packet (UDP preserves message boundaries, so trailing bytes mean
// corruption, not coalescing). The returned packet's Payload aliases
// buf.
func decodeDatagram(buf []byte) (dgPacket, error) {
	var p dgPacket
	if len(buf) == 0 {
		return p, fmt.Errorf("empty datagram: %w", ErrCorrupt)
	}
	p.Kind = buf[0]
	switch p.Kind {
	case dgKindData, dgKindFin:
		if len(buf) < dgDataHeader+dgTrailer {
			return p, fmt.Errorf("datagram truncated (%d bytes): %w", len(buf), ErrCorrupt)
		}
		n := int(binary.BigEndian.Uint16(buf[9:11]))
		if n > dgMaxPayload {
			return p, fmt.Errorf("datagram payload length %d exceeds cap: %w", n, ErrCorrupt)
		}
		if len(buf) != dgDataHeader+n+dgTrailer {
			return p, fmt.Errorf("datagram length %d does not match header (%d payload): %w",
				len(buf), n, ErrCorrupt)
		}
		if p.Kind == dgKindFin && n != 0 {
			return p, fmt.Errorf("fin with %d payload bytes: %w", n, ErrCorrupt)
		}
		body := buf[:dgDataHeader+n]
		if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(buf[len(buf)-4:]); got != want {
			return p, fmt.Errorf("datagram crc mismatch: %w", ErrCorrupt)
		}
		p.Conn = binary.BigEndian.Uint32(buf[1:5])
		p.Seq = binary.BigEndian.Uint32(buf[5:9])
		p.Payload = buf[dgDataHeader : dgDataHeader+n]
		return p, nil
	case dgKindAck:
		if len(buf) != dgAckSize {
			return p, fmt.Errorf("ack datagram length %d: %w", len(buf), ErrCorrupt)
		}
		body := buf[:dgAckSize-dgTrailer]
		if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(buf[len(buf)-4:]); got != want {
			return p, fmt.Errorf("ack crc mismatch: %w", ErrCorrupt)
		}
		p.Conn = binary.BigEndian.Uint32(buf[1:5])
		p.Cum = binary.BigEndian.Uint32(buf[5:9])
		p.Bitmap = binary.BigEndian.Uint64(buf[9:17])
		return p, nil
	}
	return p, fmt.Errorf("unknown datagram kind %#x: %w", p.Kind, ErrCorrupt)
}
