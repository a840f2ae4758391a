package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Wire protocol. Replication deliberately defines no new serialization
// for EIA state: the payload of every snapshot frame is exactly the
// bytes eia.(*Set).WriteCheckpoint produces for the store's Snapshot (the
// versioned checkpoint v2 text format), read on the far side by
// eia.ReadCheckpointInto — the same single codec pair the on-disk
// warm-restart path uses. The wire
// layer adds only a hello handshake and length framing:
//
//	hello (each side sends one, client first):
//	    magic "IFCR" | uint16 protocol version (1) | uint16 len | node ID
//
//	then, repeatedly, client → server:
//	    uint32 payload length | payload (checkpoint v2 bytes)
//	and server → client, after folding the snapshot in:
//	    uint32 length | JSON mergeAck
//
// All integers are big-endian. A malformed hello, an unknown protocol
// version or an oversized frame aborts the connection; the sender
// reconnects with backoff on its next round.
const (
	protoMagic   = "IFCR"
	protoVersion = 1

	// maxFrameBytes bounds a snapshot or ack frame. EIA checkpoints are
	// ~30 bytes per prefix, so 64 MiB covers ~2M prefixes — far past any
	// deployment this codebase targets — while keeping a garbage length
	// word from allocating unbounded memory.
	maxFrameBytes = 64 << 20
	// maxNodeIDBytes bounds the hello's node ID field.
	maxNodeIDBytes = 256
)

// mergeAck is the receiver's reply to one snapshot frame: what the merge
// changed and how much state the receiver now holds. The sender uses it
// to expose per-peer and cluster-aggregated state on /cluster without a
// second RPC.
type mergeAck struct {
	// Prefixes is the receiver's post-merge EIA prefix count.
	Prefixes int `json:"prefixes"`
	// Added and Rehomed report what this snapshot changed on the receiver.
	Added   int `json:"added"`
	Rehomed int `json:"rehomed"`
	// Node is the receiver's node ID (cross-checks the dialed peer).
	Node string `json:"node"`
}

// writeHello sends one hello message.
func writeHello(w io.Writer, nodeID string) error {
	if len(nodeID) > maxNodeIDBytes {
		return fmt.Errorf("cluster: node ID %q too long", nodeID)
	}
	buf := make([]byte, 0, len(protoMagic)+4+len(nodeID))
	buf = append(buf, protoMagic...)
	buf = binary.BigEndian.AppendUint16(buf, protoVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(nodeID)))
	buf = append(buf, nodeID...)
	_, err := w.Write(buf)
	return err
}

// readHello validates the peer's hello and returns its node ID.
func readHello(r io.Reader) (string, error) {
	var head [len(protoMagic) + 4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return "", fmt.Errorf("cluster: read hello: %w", err)
	}
	if string(head[:4]) != protoMagic {
		return "", fmt.Errorf("cluster: bad hello magic %q", head[:4])
	}
	if v := binary.BigEndian.Uint16(head[4:6]); v != protoVersion {
		return "", fmt.Errorf("cluster: protocol version %d, want %d", v, protoVersion)
	}
	n := int(binary.BigEndian.Uint16(head[6:8]))
	if n > maxNodeIDBytes {
		return "", fmt.Errorf("cluster: hello node ID length %d exceeds %d", n, maxNodeIDBytes)
	}
	id := make([]byte, n)
	if _, err := io.ReadFull(r, id); err != nil {
		return "", fmt.Errorf("cluster: read hello node ID: %w", err)
	}
	return string(id), nil
}

// writeFrame sends one length-framed payload.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("cluster: frame of %d bytes exceeds %d", len(payload), maxFrameBytes)
	}
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], uint32(len(payload)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-framed payload. io.EOF before the length
// word is returned as-is (clean shutdown between frames); everything
// else is wrapped.
func readFrame(r io.Reader) ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("cluster: read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(head[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("cluster: frame of %d bytes exceeds %d", n, maxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("cluster: read frame body: %w", err)
	}
	return payload, nil
}

// writeAck sends a mergeAck as a JSON frame.
func writeAck(w io.Writer, ack mergeAck) error {
	b, err := json.Marshal(ack)
	if err != nil {
		return err
	}
	return writeFrame(w, b)
}

// readAck reads and decodes a mergeAck frame.
func readAck(r io.Reader) (mergeAck, error) {
	var ack mergeAck
	b, err := readFrame(r)
	if err != nil {
		return ack, err
	}
	if err := json.Unmarshal(b, &ack); err != nil {
		return ack, fmt.Errorf("cluster: decode ack: %w", err)
	}
	return ack, nil
}
