package memcached

// The memcached binary protocol (the classic 24-byte-header framing).
// Real memcached speaks both the text and binary protocols on the
// same port, distinguishing them by the first byte of a connection
// (0x80 = binary request magic). The I-Cilk frontend does the same:
// length-prefixed frames are read with LineReader.ReadExactBytes, where
// the text protocol reads lines with ReadLineBytes.

import (
	"encoding/binary"
	"strconv"
)

// Binary protocol magics.
const (
	binReqMagic  = 0x80
	binRespMagic = 0x81
)

// Binary opcodes (the classic set).
const (
	binOpGet     = 0x00
	binOpSet     = 0x01
	binOpAdd     = 0x02
	binOpReplace = 0x03
	binOpDelete  = 0x04
	binOpIncr    = 0x05
	binOpDecr    = 0x06
	binOpQuit    = 0x07
	binOpFlush   = 0x08
	binOpGetQ    = 0x09
	binOpNoop    = 0x0a
	binOpVersion = 0x0b
	binOpGetK    = 0x0c
	binOpGetKQ   = 0x0d
	binOpAppend  = 0x0e
	binOpPrepend = 0x0f
	binOpStat    = 0x10
	binOpTouch   = 0x1c
)

// Binary response status codes.
const (
	binStatusOK             = 0x0000
	binStatusKeyNotFound    = 0x0001
	binStatusKeyExists      = 0x0002
	binStatusTooLarge       = 0x0003 // frame body over maxBinBody
	binStatusItemNotStored  = 0x0005
	binStatusDeltaBadval    = 0x0006
	binStatusUnknownCommand = 0x0081
)

// binHeader is the fixed 24-byte request/response header.
type binHeader struct {
	magic     uint8
	opcode    uint8
	keyLen    uint16
	extrasLen uint8
	dataType  uint8
	status    uint16 // vbucket id in requests
	bodyLen   uint32
	opaque    uint32
	cas       uint64
}

func parseBinHeader(b []byte) binHeader {
	return binHeader{
		magic:     b[0],
		opcode:    b[1],
		keyLen:    binary.BigEndian.Uint16(b[2:]),
		extrasLen: b[4],
		dataType:  b[5],
		status:    binary.BigEndian.Uint16(b[6:]),
		bodyLen:   binary.BigEndian.Uint32(b[8:]),
		opaque:    binary.BigEndian.Uint32(b[12:]),
		cas:       binary.BigEndian.Uint64(b[16:]),
	}
}

// binResponse renders a response frame.
func binResponse(opcode uint8, status uint16, opaque uint32, cas uint64, extras, key, value []byte) []byte {
	body := len(extras) + len(key) + len(value)
	out := make([]byte, 24+body)
	out[0] = binRespMagic
	out[1] = opcode
	binary.BigEndian.PutUint16(out[2:], uint16(len(key)))
	out[4] = uint8(len(extras))
	binary.BigEndian.PutUint16(out[6:], status)
	binary.BigEndian.PutUint32(out[8:], uint32(body))
	binary.BigEndian.PutUint32(out[12:], opaque)
	binary.BigEndian.PutUint64(out[16:], cas)
	n := 24
	n += copy(out[n:], extras)
	n += copy(out[n:], key)
	copy(out[n:], value)
	return out
}

// binError renders an error response with a textual body.
func binError(opcode uint8, status uint16, opaque uint32, msg string) []byte {
	return binResponse(opcode, status, opaque, 0, nil, nil, []byte(msg))
}

// ExecuteBinary runs one binary request against the store. body is
// the frame body (extras + key + value) as declared by the header.
// The response is nil for quiet ops that produce no reply (GETQ miss),
// and quit reports that the connection should close after replying.
func ExecuteBinary(s *Store, h binHeader, body []byte) (resp []byte, quit bool) {
	if h.magic != binReqMagic {
		return binError(h.opcode, binStatusUnknownCommand, h.opaque, "bad magic"), true
	}
	if int(h.extrasLen)+int(h.keyLen) > len(body) {
		return binError(h.opcode, binStatusUnknownCommand, h.opaque, "bad frame"), true
	}
	extras := body[:h.extrasLen]
	key := string(body[h.extrasLen : int(h.extrasLen)+int(h.keyLen)])
	value := body[int(h.extrasLen)+int(h.keyLen):]

	switch h.opcode {
	case binOpGet, binOpGetQ, binOpGetK, binOpGetKQ:
		v, flags, cas, ok := s.Get(key)
		quiet := h.opcode == binOpGetQ || h.opcode == binOpGetKQ
		withKey := h.opcode == binOpGetK || h.opcode == binOpGetKQ
		if !ok {
			if quiet {
				return nil, false // quiet miss: no response
			}
			return binError(h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		}
		var ex [4]byte
		binary.BigEndian.PutUint32(ex[:], flags)
		var kb []byte
		if withKey {
			kb = []byte(key)
		}
		return binResponse(h.opcode, binStatusOK, h.opaque, cas, ex[:], kb, v), false

	case binOpSet, binOpAdd, binOpReplace:
		if len(extras) < 8 {
			return binError(h.opcode, binStatusUnknownCommand, h.opaque, "missing extras"), false
		}
		flags := binary.BigEndian.Uint32(extras[0:])
		exptime := int64(binary.BigEndian.Uint32(extras[4:]))
		mode := map[uint8]SetMode{binOpSet: ModeSet, binOpAdd: ModeAdd, binOpReplace: ModeReplace}[h.opcode]
		if h.cas != 0 {
			mode = ModeCAS
		}
		res, cas := s.SetBCAS(mode, []byte(key), value, flags, exptime, h.cas)
		switch res {
		case Stored:
			return binResponse(h.opcode, binStatusOK, h.opaque, cas, nil, nil, nil), false
		case NotStored:
			// Real memcached semantics: ADD of an existing key reports
			// KEY_EXISTS; REPLACE of a missing key reports
			// KEY_ENOENT.
			if h.opcode == binOpAdd {
				return binError(h.opcode, binStatusKeyExists, h.opaque, "Data exists for key"), false
			}
			return binError(h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		case Exists:
			return binError(h.opcode, binStatusKeyExists, h.opaque, "Data exists for key"), false
		default:
			return binError(h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		}

	case binOpAppend, binOpPrepend:
		mode := ModeAppend
		if h.opcode == binOpPrepend {
			mode = ModePrepend
		}
		if s.Set(mode, key, value, 0, 0, 0) != Stored {
			return binError(h.opcode, binStatusItemNotStored, h.opaque, "Not stored"), false
		}
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpDelete:
		if !s.Delete(key) {
			return binError(h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		}
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpIncr, binOpDecr:
		if len(extras) < 20 {
			return binError(h.opcode, binStatusUnknownCommand, h.opaque, "missing extras"), false
		}
		delta := binary.BigEndian.Uint64(extras[0:])
		initial := binary.BigEndian.Uint64(extras[8:])
		exptime := binary.BigEndian.Uint32(extras[16:])
		nv, ok, numeric := s.IncrDecr(key, delta, h.opcode == binOpIncr)
		if !ok {
			// 0xffffffff exptime means "do not create".
			if exptime == 0xffffffff {
				return binError(h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
			}
			s.Set(ModeSet, key, []byte(strconv.FormatUint(initial, 10)), 0, int64(exptime), 0)
			nv = initial
		} else if !numeric {
			return binError(h.opcode, binStatusDeltaBadval, h.opaque, "Non-numeric value"), false
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], nv)
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, out[:]), false

	case binOpTouch:
		if len(extras) < 4 {
			return binError(h.opcode, binStatusUnknownCommand, h.opaque, "missing extras"), false
		}
		exptime := int64(binary.BigEndian.Uint32(extras[0:]))
		if !s.Touch(key, exptime) {
			return binError(h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		}
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpFlush:
		s.FlushAll()
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpNoop:
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpVersion:
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, []byte("1.6-icilk-repro")), false

	case binOpStat:
		// A single terminating empty stat packet (full stats come via
		// the text protocol).
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpQuit:
		return binResponse(h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), true

	default:
		return binError(h.opcode, binStatusUnknownCommand, h.opaque, "Unknown command"), false
	}
}
