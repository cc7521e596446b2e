// Package stun implements the subset of RFC 5389 (Session Traversal
// Utilities for NAT) that WebRTC's ICE layer puts on the wire: binding
// requests and responses with XOR-MAPPED-ADDRESS, USERNAME, PRIORITY and
// SOFTWARE attributes.
//
// Two properties of STUN drive the paper's results and are reproduced
// faithfully here. First, STUN is plaintext: the paper's dynamic PDN
// detector recognizes PDN traffic by spotting binding requests in a
// capture, and its IP-leak harvester reads candidate addresses straight
// out of the attribute bytes. Second, XOR-MAPPED-ADDRESS reflects the
// sender's post-NAT address, which is how peers (and attackers) learn
// each other's public IPs.
package stun

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// MagicCookie is the fixed RFC 5389 cookie present in every message.
const MagicCookie uint32 = 0x2112A442

// headerLen is the fixed STUN header size.
const headerLen = 20

// MaxMessageSize is the read-buffer size for a STUN socket. RFC 8489 §6.1
// keeps a message under the path MTU so that it is never fragmented, and
// 1500 bytes is the largest MTU the testbed models. A longer datagram
// read into a buffer this size is cut short, and Decode rejects it as
// truncated.
const MaxMessageSize = 1500

// cookieBytes is MagicCookie in network byte order, used for XOR coding.
var cookieBytes = [4]byte{0x21, 0x12, 0xA4, 0x42}

// MsgType is the 14-bit STUN message type.
type MsgType uint16

// Message types used by ICE connectivity checks.
const (
	TypeBindingRequest MsgType = 0x0001
	TypeBindingSuccess MsgType = 0x0101
	TypeBindingError   MsgType = 0x0111
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case TypeBindingRequest:
		return "binding-request"
	case TypeBindingSuccess:
		return "binding-success"
	case TypeBindingError:
		return "binding-error"
	default:
		return fmt.Sprintf("MsgType(0x%04x)", uint16(t))
	}
}

// AttrType is a STUN attribute type code.
type AttrType uint16

// Attribute types understood by this codec.
const (
	AttrXORMappedAddress AttrType = 0x0020
	AttrUsername         AttrType = 0x0006
	AttrErrorCode        AttrType = 0x0009
	AttrPriority         AttrType = 0x0024
	AttrSoftware         AttrType = 0x8022
)

// Errors returned by the codec.
var (
	ErrNotSTUN   = errors.New("stun: not a STUN message")
	ErrTruncated = errors.New("stun: truncated message")
)

// TxID is the 96-bit transaction identifier.
type TxID [12]byte

// NewTxID returns a cryptographically random transaction ID.
func NewTxID() TxID {
	var id TxID
	if _, err := rand.Read(id[:]); err != nil {
		// crypto/rand failure is unrecoverable for the process.
		panic(fmt.Sprintf("stun: rand: %v", err))
	}
	return id
}

// Message is a decoded STUN message.
type Message struct {
	Type MsgType
	Tx   TxID

	// Decoded attributes; zero values mean "absent".
	XORMappedAddress netip.AddrPort
	Username         string
	Software         string
	Priority         uint32
	ErrorCode        int
	ErrorReason      string
}

// Encode serializes the message.
func (m *Message) Encode() []byte {
	var attrs []byte
	if m.XORMappedAddress.IsValid() {
		attrs = appendAttr(attrs, AttrXORMappedAddress, xorAddr(m.XORMappedAddress, m.Tx))
	}
	if m.Username != "" {
		attrs = appendAttr(attrs, AttrUsername, []byte(m.Username))
	}
	if m.Priority != 0 {
		var p [4]byte
		binary.BigEndian.PutUint32(p[:], m.Priority)
		attrs = appendAttr(attrs, AttrPriority, p[:])
	}
	if m.ErrorCode != 0 {
		val := make([]byte, 4+len(m.ErrorReason))
		val[2] = byte(m.ErrorCode / 100)
		val[3] = byte(m.ErrorCode % 100)
		copy(val[4:], m.ErrorReason)
		attrs = appendAttr(attrs, AttrErrorCode, val)
	}
	if m.Software != "" {
		attrs = appendAttr(attrs, AttrSoftware, []byte(m.Software))
	}

	out := make([]byte, headerLen+len(attrs))
	binary.BigEndian.PutUint16(out[0:2], uint16(m.Type))
	binary.BigEndian.PutUint16(out[2:4], uint16(len(attrs)))
	binary.BigEndian.PutUint32(out[4:8], MagicCookie)
	copy(out[8:20], m.Tx[:])
	copy(out[headerLen:], attrs)
	return out
}

// appendAttr appends a TLV attribute with RFC 5389 32-bit padding.
func appendAttr(b []byte, t AttrType, val []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(t))
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(val)))
	b = append(b, hdr[:]...)
	b = append(b, val...)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	return b
}

// Is reports whether data plausibly starts a STUN message: correct magic
// cookie and a known leading type. This is the classifier the dynamic
// PDN-traffic detector applies to captured datagrams.
func Is(data []byte) bool {
	if len(data) < headerLen {
		return false
	}
	if binary.BigEndian.Uint32(data[4:8]) != MagicCookie {
		return false
	}
	// Top two bits of the type must be zero per RFC 5389.
	return data[0]&0xc0 == 0
}

// Decode parses a STUN message.
func Decode(data []byte) (*Message, error) {
	if !Is(data) {
		return nil, ErrNotSTUN
	}
	m := &Message{Type: MsgType(binary.BigEndian.Uint16(data[0:2]))}
	copy(m.Tx[:], data[8:20])
	attrLen := int(binary.BigEndian.Uint16(data[2:4]))
	if headerLen+attrLen > len(data) {
		return nil, ErrTruncated
	}
	rest := data[headerLen : headerLen+attrLen]
	for len(rest) >= 4 {
		t := AttrType(binary.BigEndian.Uint16(rest[0:2]))
		l := int(binary.BigEndian.Uint16(rest[2:4]))
		rest = rest[4:]
		if l > len(rest) {
			return nil, ErrTruncated
		}
		val := rest[:l]
		switch t {
		case AttrXORMappedAddress:
			ap, err := unxorAddr(val, m.Tx)
			if err != nil {
				return nil, err
			}
			m.XORMappedAddress = ap
		case AttrUsername:
			m.Username = string(val)
		case AttrSoftware:
			m.Software = string(val)
		case AttrPriority:
			if l != 4 {
				return nil, fmt.Errorf("stun: PRIORITY length %d", l)
			}
			m.Priority = binary.BigEndian.Uint32(val)
		case AttrErrorCode:
			if l < 4 {
				return nil, fmt.Errorf("stun: ERROR-CODE length %d", l)
			}
			m.ErrorCode = int(val[2])*100 + int(val[3])
			m.ErrorReason = string(val[4:])
		}
		// advance with padding
		pad := (4 - l%4) % 4
		if l+pad > len(rest) {
			rest = nil
		} else {
			rest = rest[l+pad:]
		}
	}
	return m, nil
}

// xorAddr encodes an IPv4 XOR-MAPPED-ADDRESS value.
func xorAddr(ap netip.AddrPort, _ TxID) []byte {
	a4 := ap.Addr().Unmap().As4()
	out := make([]byte, 8)
	out[1] = 0x01 // family IPv4
	binary.BigEndian.PutUint16(out[2:4], ap.Port()^uint16(MagicCookie>>16))
	for i := 0; i < 4; i++ {
		out[4+i] = a4[i] ^ cookieBytes[i]
	}
	return out
}

// unxorAddr decodes an IPv4 XOR-MAPPED-ADDRESS value.
func unxorAddr(val []byte, _ TxID) (netip.AddrPort, error) {
	if len(val) < 8 {
		return netip.AddrPort{}, fmt.Errorf("stun: XOR-MAPPED-ADDRESS length %d", len(val))
	}
	if val[1] != 0x01 {
		return netip.AddrPort{}, fmt.Errorf("stun: unsupported address family 0x%02x", val[1])
	}
	port := binary.BigEndian.Uint16(val[2:4]) ^ uint16(MagicCookie>>16)
	var a4 [4]byte
	for i := 0; i < 4; i++ {
		a4[i] = val[4+i] ^ cookieBytes[i]
	}
	return netip.AddrPortFrom(netip.AddrFrom4(a4), port), nil
}

// BindingRequest builds a binding request with a fresh transaction ID.
func BindingRequest(username string, priority uint32) *Message {
	return &Message{
		Type:     TypeBindingRequest,
		Tx:       NewTxID(),
		Username: username,
		Priority: priority,
		Software: "pdnsec-ice",
	}
}

// BindingSuccess builds the success response mirroring a request's
// transaction ID and reflecting the observed source address.
func BindingSuccess(tx TxID, mapped netip.AddrPort) *Message {
	return &Message{
		Type:             TypeBindingSuccess,
		Tx:               tx,
		XORMappedAddress: mapped,
		Software:         "pdnsec-ice",
	}
}
