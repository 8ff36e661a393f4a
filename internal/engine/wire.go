package engine

// MsgMuUpdate is a retired verb with no handler: initiator → client, one
// multiplier update per client per iteration. The initiator now takes the
// dual step itself; the name is kept because the benchmark's verb → phase
// table compiles against it.
const MsgMuUpdate = "client.muupdate"
