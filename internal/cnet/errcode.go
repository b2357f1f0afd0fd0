package cnet

import "press/internal/snapio"

// Transport errors are package-level sentinels, which lets snapshots
// serialize them as a tiny enum instead of string round-trips.

// ErrCode maps a transport error to its stable wire code (0 = nil).
func ErrCode(err error) uint64 {
	switch err {
	case nil:
		return 0
	case ErrReset:
		return 1
	case ErrTimeout:
		return 2
	case ErrRefused:
		return 3
	case ErrClosed:
		return 4
	}
	return 5
}

// ErrFromCode inverts ErrCode. Unknown codes map to ErrClosed, the most
// benign sentinel; code 5 (a non-sentinel error at save time) maps to
// ErrReset since every such error in the simulator is abortive.
func ErrFromCode(c uint64) error {
	switch c {
	case 0:
		return nil
	case 1:
		return ErrReset
	case 2:
		return ErrTimeout
	case 3:
		return ErrRefused
	case 4:
		return ErrClosed
	}
	return ErrReset
}

// SnapErr moves a transport error across a snapshot as its code.
func SnapErr(x *snapio.Ctx, err *error) {
	code := ErrCode(*err)
	x.U64(&code)
	if !x.Saving() {
		*err = ErrFromCode(code)
	}
}
