// Package idmef implements a compact subset of the Intrusion Detection
// Message Exchange Format (IETF IDWG draft) used by the Enhanced InFilter
// Analysis module to notify consumers of detected attacks (paper §5.1.4).
// Alerts are serialized as IDMEF-Message XML documents; the consumer side
// parses and dispatches them to a handler (the Alert UI role).
package idmef

import (
	"encoding/xml"
	"fmt"
	"time"

	"infilter/internal/flow"
)

// Stage identifies the analysis stage that flagged the attack.
type Stage string

// Detection stages.
const (
	StageEIA Stage = "eia-set"
	// StageHeavyHitter is no longer emitted by any pipeline stage; it is
	// kept only because the benchmark module still names it.
	StageHeavyHitter Stage = "heavy-hitter"
	StageScan        Stage = "scan-analysis"
	StageNNS         Stage = "nns-search"
	StageTTL         Stage = "ttl-profile"
)

// Alert is the subset of an IDMEF Alert the prototype emits.
type Alert struct {
	XMLName        xml.Name  `xml:"Alert"`
	MessageID      string    `xml:"messageid,attr"`
	CreateTime     time.Time `xml:"CreateTime"`
	Classification Class     `xml:"Classification"`
	Source         Node      `xml:"Source>Node"`
	Target         Node      `xml:"Target>Node"`
	Assessment     Assess    `xml:"Assessment"`
}

// Class carries the attack classification text.
type Class struct {
	Text string `xml:"text,attr"`
}

// Node identifies an endpoint by address and port.
type Node struct {
	Address string `xml:"Address"`
	Port    uint16 `xml:"Port"`
}

// Assess carries detection metadata: which stage fired, the ingress peer
// AS, and the anomaly distance when NNS was involved.
type Assess struct {
	Stage    Stage `xml:"Stage"`
	PeerAS   int   `xml:"PeerAS"`
	Distance int   `xml:"Distance"`
}

// Message is the top-level IDMEF-Message envelope.
type Message struct {
	XMLName xml.Name `xml:"IDMEF-Message"`
	Version string   `xml:"version,attr"`
	Alert   Alert    `xml:"Alert"`
}

// IDMEFVersion is the draft version tag emitted.
const IDMEFVersion = "1.0"

// NewAlert builds an alert for a flagged flow.
func NewAlert(id string, now time.Time, stage Stage, peerAS int, classification string, k flow.Key, distance int) Alert {
	return Alert{
		MessageID:      id,
		CreateTime:     now.UTC(),
		Classification: Class{Text: classification},
		Source:         Node{Address: k.Src.String(), Port: k.SrcPort},
		Target:         Node{Address: k.Dst.String(), Port: k.DstPort},
		Assessment:     Assess{Stage: stage, PeerAS: peerAS, Distance: distance},
	}
}

// Marshal serializes the alert as an IDMEF-Message document.
func Marshal(a Alert) ([]byte, error) {
	msg := Message{Version: IDMEFVersion, Alert: a}
	out, err := xml.MarshalIndent(msg, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("idmef: marshal alert %s: %w", a.MessageID, err)
	}
	return append([]byte(xml.Header), out...), nil
}

// Unmarshal parses an IDMEF-Message document.
func Unmarshal(raw []byte) (Alert, error) {
	var msg Message
	if err := xml.Unmarshal(raw, &msg); err != nil {
		return Alert{}, fmt.Errorf("idmef: unmarshal: %w", err)
	}
	if msg.Version != IDMEFVersion {
		return Alert{}, fmt.Errorf("idmef: unsupported version %q", msg.Version)
	}
	return msg.Alert, nil
}
