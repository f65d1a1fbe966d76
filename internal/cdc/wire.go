package cdc

import "mlds/internal/wire"

// EventFromChange renders one change as its wire form, for the serving
// tier's MsgEvent pushes.
func EventFromChange(c Change) wire.Event {
	return wire.Event{Op: byte(c.Op), ID: c.ID, Pos: c.Pos, Epoch: c.Epoch, Txn: c.Txn, File: c.File, Rec: c.Rec}
}

// ChangeFromEvent turns a pushed wire event back into a change, for the
// remote client's watch pipes.
func ChangeFromEvent(e wire.Event) Change {
	return Change{Op: Op(e.Op), ID: e.ID, Pos: e.Pos, Epoch: e.Epoch, Txn: e.Txn, File: e.File, Rec: e.Rec}
}
