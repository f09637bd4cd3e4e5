package memcached

// The allocation-free binary-protocol path: ExecuteBinaryAppend runs
// a request with the key and value left as views into the connection
// buffer and renders the response frame into a caller-provided
// scratch buffer. ExecuteBinary in binary.go is the reference
// implementation; the fuzz parity test asserts identical frames.

import (
	"encoding/binary"
	"strconv"
)

// appendBinResponse renders a response frame into dst.
func appendBinResponse(dst []byte, opcode uint8, status uint16, opaque uint32, cas uint64, extras, key, value []byte) []byte {
	body := len(extras) + len(key) + len(value)
	var hdr [24]byte
	hdr[0] = binRespMagic
	hdr[1] = opcode
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(key)))
	hdr[4] = uint8(len(extras))
	binary.BigEndian.PutUint16(hdr[6:], status)
	binary.BigEndian.PutUint32(hdr[8:], uint32(body))
	binary.BigEndian.PutUint32(hdr[12:], opaque)
	binary.BigEndian.PutUint64(hdr[16:], cas)
	dst = append(dst, hdr[:]...)
	dst = append(dst, extras...)
	dst = append(dst, key...)
	return append(dst, value...)
}

// appendBinError renders an error response with a textual body into
// dst.
func appendBinError(dst []byte, opcode uint8, status uint16, opaque uint32, msg string) []byte {
	dst = appendBinResponse(dst, opcode, status, opaque, 0, nil, nil, nil)
	// Patch the body length and append the message without a []byte
	// conversion.
	binary.BigEndian.PutUint32(dst[len(dst)-24+8:], uint32(len(msg)))
	return append(dst, msg...)
}

// appendBinHit is the binary protocol's HitRenderer: a GET response
// frame whose opcode and opaque — the request's, not the item's — are
// left zero for ExecuteBinaryAppend to fill in afterwards.
func appendBinHit(dst, key, value []byte, flags uint32, cas uint64, withKey bool) []byte {
	var ex [4]byte
	binary.BigEndian.PutUint32(ex[:], flags)
	if !withKey {
		key = nil
	}
	return appendBinResponse(dst, 0, binStatusOK, 0, cas, ex[:], key, value)
}

// ExecuteBinaryAppend runs one binary request against the store,
// appending the response frame to dst (unchanged for quiet ops with
// no reply) and returning it. body is the frame body (extras + key +
// value) and may be a transient view into the connection buffer.
// quit reports that the connection should close after replying. The
// frame bytes are identical to ExecuteBinary's for the same input.
func ExecuteBinaryAppend(s *Store, h binHeader, body, dst []byte) (out []byte, quit bool) {
	if h.magic != binReqMagic {
		return appendBinError(dst, h.opcode, binStatusUnknownCommand, h.opaque, "bad magic"), true
	}
	if int(h.extrasLen)+int(h.keyLen) > len(body) {
		return appendBinError(dst, h.opcode, binStatusUnknownCommand, h.opaque, "bad frame"), true
	}
	extras := body[:h.extrasLen]
	key := body[h.extrasLen : int(h.extrasLen)+int(h.keyLen)]
	value := body[int(h.extrasLen)+int(h.keyLen):]

	switch h.opcode {
	case binOpGet, binOpGetQ, binOpGetK, binOpGetKQ:
		quiet := h.opcode == binOpGetQ || h.opcode == binOpGetKQ
		withKey := h.opcode == binOpGetK || h.opcode == binOpGetKQ
		frame, hit := len(dst), false
		if dst, hit = s.AppendHit(dst, key, withKey, appendBinHit); !hit {
			if quiet {
				return dst, false // quiet miss: no response
			}
			return appendBinError(dst, h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		}
		dst[frame+1] = h.opcode
		binary.BigEndian.PutUint32(dst[frame+12:], h.opaque)
		return dst, false

	case binOpSet, binOpAdd, binOpReplace:
		if len(extras) < 8 {
			return appendBinError(dst, h.opcode, binStatusUnknownCommand, h.opaque, "missing extras"), false
		}
		flags := binary.BigEndian.Uint32(extras[0:])
		exptime := int64(binary.BigEndian.Uint32(extras[4:]))
		var mode SetMode
		switch h.opcode {
		case binOpSet:
			mode = ModeSet
		case binOpAdd:
			mode = ModeAdd
		default:
			mode = ModeReplace
		}
		if h.cas != 0 {
			mode = ModeCAS
		}
		res, cas := s.SetBCAS(mode, key, value, flags, exptime, h.cas)
		switch res {
		case Stored:
			return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, cas, nil, nil, nil), false
		case NotStored:
			// Real memcached semantics: ADD of an existing key reports
			// KEY_EXISTS; REPLACE of a missing key reports
			// KEY_ENOENT.
			if h.opcode == binOpAdd {
				return appendBinError(dst, h.opcode, binStatusKeyExists, h.opaque, "Data exists for key"), false
			}
			return appendBinError(dst, h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		case Exists:
			return appendBinError(dst, h.opcode, binStatusKeyExists, h.opaque, "Data exists for key"), false
		default:
			return appendBinError(dst, h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		}

	case binOpAppend, binOpPrepend:
		mode := ModeAppend
		if h.opcode == binOpPrepend {
			mode = ModePrepend
		}
		if s.SetB(mode, key, value, 0, 0, 0) != Stored {
			return appendBinError(dst, h.opcode, binStatusItemNotStored, h.opaque, "Not stored"), false
		}
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpDelete:
		if !s.DeleteB(key) {
			return appendBinError(dst, h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		}
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpIncr, binOpDecr:
		if len(extras) < 20 {
			return appendBinError(dst, h.opcode, binStatusUnknownCommand, h.opaque, "missing extras"), false
		}
		delta := binary.BigEndian.Uint64(extras[0:])
		initial := binary.BigEndian.Uint64(extras[8:])
		exptime := binary.BigEndian.Uint32(extras[16:])
		nv, ok, numeric := s.IncrDecrB(key, delta, h.opcode == binOpIncr)
		if !ok {
			// 0xffffffff exptime means "do not create".
			if exptime == 0xffffffff {
				return appendBinError(dst, h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
			}
			var num [20]byte
			s.SetB(ModeSet, key, strconv.AppendUint(num[:0], initial, 10), 0, int64(exptime), 0)
			nv = initial
		} else if !numeric {
			return appendBinError(dst, h.opcode, binStatusDeltaBadval, h.opaque, "Non-numeric value"), false
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], nv)
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, out[:]), false

	case binOpTouch:
		if len(extras) < 4 {
			return appendBinError(dst, h.opcode, binStatusUnknownCommand, h.opaque, "missing extras"), false
		}
		exptime := int64(binary.BigEndian.Uint32(extras[0:]))
		if !s.TouchB(key, exptime) {
			return appendBinError(dst, h.opcode, binStatusKeyNotFound, h.opaque, "Not found"), false
		}
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpFlush:
		s.FlushAll()
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpNoop:
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpVersion:
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, []byte("1.6-icilk-repro")), false

	case binOpStat:
		// A single terminating empty stat packet (full stats come via
		// the text protocol).
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), false

	case binOpQuit:
		return appendBinResponse(dst, h.opcode, binStatusOK, h.opaque, 0, nil, nil, nil), true

	default:
		return appendBinError(dst, h.opcode, binStatusUnknownCommand, h.opaque, "Unknown command"), false
	}
}
