// The message-plane attachment point: how a Runner steps automata that talk
// over channels instead of (or alongside) shared registers.
//
// The simulator's model is unchanged — a run is still a schedule of process
// ids, and each granted step performs exactly one operation — but with a
// Network attached an operation may also be OpSend (hand one message to the
// substrate, addressed to one process) or OpRecv (ask the substrate for the
// next deliverable message, if any). The substrate itself — link timing
// grades, delivery ordering, adversarial drops — lives outside this package
// (see internal/msgnet); the runner only owes it the two calls below, made
// synchronously from the stepping goroutine at the step's schedule position,
// so delivery decisions are as deterministic as the schedule that drives
// them.
//
// Send and recv steps run through the same step kernel as reads and writes,
// including on the batched observer-free path, and must stay 0 allocs/op
// there: Recv returns a pointer into per-recipient storage the
// network reuses, never a fresh Message.

package sim

import "github.com/settimeliness/settimeliness/internal/procset"

// Message is one delivered message, handed to the receiving automaton as the
// prev result of its OpRecv step. The pointer a Recv returns aims into
// per-recipient storage owned by the network and is only valid until the
// recipient's next recv step — automata must copy out what they keep, and
// must treat Payload as immutable (it is the sender's written value, subject
// to the same aliasing contract as register values).
type Message struct {
	// From is the sender.
	From procset.ID
	// SentStep is the global step index of the send.
	SentStep int
	// Seq is the network-assigned global send sequence number; (ready, Seq)
	// is the delivery order, so Seq breaks same-step ties deterministically.
	Seq uint64
	// Payload is the value the sender passed to SendOp; may be nil (a pure
	// heartbeat — From and SentStep already identify the event).
	Payload any
}

// Network is the message substrate a machine-mode runner dispatches OpSend
// and OpRecv steps to (Config.Network). All three methods are called only
// from the stepping goroutine; step is the executing step's 0-based index
// (Runner.Steps at the instant the step runs), which is what makes graded
// delivery bounds expressible in schedule time.
//
// Recv returns nil when nothing is deliverable to the process at this step —
// a recv on an empty or not-yet-ready queue is still a step (the process
// polled and learned nothing), exactly like reading a never-written register
// returns nil.
type Network interface {
	Send(step int, from, to procset.ID, payload any)
	Recv(step int, to procset.ID) *Message
	// Reset returns the substrate to its initial state: queues emptied,
	// sequence numbers and timing state rewound, pooled storage retained.
	// Runner.Reset calls it, so a pooled runner replays bit-identically.
	Reset()
}
