package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"resilient"
	"resilient/internal/core"
	"resilient/internal/livenet"
	"resilient/internal/msg"
	"resilient/internal/netxport"
	"resilient/internal/proto"
	"resilient/internal/runtime"
	"resilient/internal/transport"
)

// slotFrames is the frame mix one log slot puts on the wire at n=7: the
// Initial and Echo frames of a Figure-2 instance with unanimous inputs, as
// the simulator records its machines' sends, and the proposer's Graph frame
// carrying a full 16-op batch to each peer. A broadcast is n-1 frames: the
// copy to self is delivered locally and never encoded.
func slotFrames() ([]msg.Message, error) {
	d, ok := proto.Lookup(resilient.ProtocolMalicious)
	if !ok {
		return nil, fmt.Errorf("malicious protocol not registered")
	}
	var frames []msg.Message
	record := func(self msg.ID, outs []core.Outbound) {
		for _, o := range outs {
			switch {
			case o.To == msg.Broadcast:
				for i := 0; i < logN-1; i++ {
					frames = append(frames, o.Msg.Clone())
				}
			case o.To != self:
				frames = append(frames, o.Msg.Clone())
			}
		}
	}
	inputs := make([]msg.Value, logN)
	for i := range inputs {
		inputs[i] = msg.V1
	}
	_, err := runtime.Run(runtime.Config{
		N: logN, K: resilient.ProtocolMalicious.MaxFaults(logN), Inputs: inputs, Seed: 1,
		Spawn: func(ctx runtime.SpawnContext) (core.Machine, error) {
			m, err := d.Spawn(ctx.Config, proto.Deps{Sink: ctx.Sink})
			if err != nil {
				return nil, err
			}
			return &recorder{Machine: m, record: record}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	// The batch payload: each op as a uvarint length and its bytes, the
	// layout the log ships a batch in.
	var payload []byte
	op := make([]byte, logOpBytes)
	for i := 0; i < logBatch; i++ {
		payload = binary.AppendUvarint(payload, uint64(len(op)))
		payload = append(payload, op...)
	}
	for i := 0; i < logN-1; i++ {
		frames = append(frames, msg.Graph(0, 0, payload))
	}
	return frames, nil
}

// recorder passes every send of a machine to record.
type recorder struct {
	core.Machine
	record func(self msg.ID, outs []core.Outbound)
}

func (m *recorder) Start() []core.Outbound {
	outs := m.Machine.Start()
	m.record(m.ID(), outs)
	return outs
}

func (m *recorder) OnMessage(in msg.Message) []core.Outbound {
	outs := m.Machine.OnMessage(in)
	m.record(m.ID(), outs)
	return outs
}

// sameMessage reports whether two messages carry the same fields and
// payload bytes.
func sameMessage(a, b msg.Message) bool {
	return a.Kind == b.Kind && a.From == b.From && a.Subject == b.Subject && a.Phase == b.Phase &&
		a.Value == b.Value && a.Cardinality == b.Cardinality && a.Bot == b.Bot && bytes.Equal(a.Payload, b.Payload)
}

// perFrameNS times pass over the frame mix in five slices of budget and
// returns the median ns per frame.
func perFrameNS(frames int, budget time.Duration, pass func()) float64 {
	var ns []float64
	for slice := 0; slice < 5; slice++ {
		passes := 0
		start := time.Now()
		end := start.Add(budget / 5)
		for passes == 0 || time.Now().Before(end) {
			pass()
			passes++
		}
		ns = append(ns, float64(time.Since(start))/float64(passes*frames))
	}
	return quantile(ns, 0.5)
}

// msgLayer measures the codec over the log's frame mix: AppendEncode and
// Decoder.Decode ns per frame, and the mean encoded frame size. Every
// decoded frame must equal the one encoded.
func msgLayer(r *run, budget time.Duration) error {
	frames, err := slotFrames()
	if err != nil {
		return fmt.Errorf("msg frame mix: %w", err)
	}
	var stream, buf []byte
	total := 0
	for _, m := range frames {
		buf = msg.AppendEncode(buf[:0], m)
		total += len(buf)
		stream = msg.AppendFrame(stream, buf)
	}
	rd := bytes.NewReader(stream)
	dec := msg.NewDecoder(rd)
	for i, want := range frames {
		got, err := dec.Decode()
		if err != nil || !sameMessage(got, want) {
			r.problem("msg: frame %d (%v) decoded as %v, err %v", i, want, got, err)
			break
		}
	}
	r.count(len(frames), 0)

	r.put("msg.encode_ns", "ns", perFrameNS(len(frames), budget/2, func() {
		for _, m := range frames {
			buf = msg.AppendEncode(buf[:0], m)
		}
	}))
	r.put("msg.decode_ns", "ns", perFrameNS(len(frames), budget/2, func() {
		rd.Reset(stream)
		for range frames {
			if _, err := dec.Decode(); err != nil {
				panic(err) // the stream decoded cleanly above
			}
		}
	}))
	r.put("msg.bytes_per_frame", "B", float64(total)/float64(len(frames)))
	return nil
}

// mesh opens a loopback TCP mesh of n netxport endpoints at default
// settings.
func mesh(n int) ([]*netxport.Endpoint, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	eps := make([]*netxport.Endpoint, 0, n)
	for i := 0; i < n; i++ {
		ep, err := netxport.Listen(msg.ID(i), addrs)
		if err != nil {
			closeMesh(eps)
			return nil, err
		}
		eps = append(eps, ep)
	}
	for _, ep := range eps {
		for j, peer := range eps {
			ep.SetPeerAddr(msg.ID(j), peer.Addr())
		}
	}
	return eps, nil
}

func closeMesh(eps []*netxport.Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

// netxportLayer measures the TCP transport alone: saturation throughput of
// an n=7 mesh with header-only frames, and the Send->Recv round trip
// between two endpoints at the default linger.
func netxportLayer(r *run, budget time.Duration) error {
	const satMsgs = 100000
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout(budget))
	defer cancel()
	var rates []float64
	end := time.Now().Add(budget / 2)
	for len(rates) < 3 || time.Now().Before(end) {
		rep, err := resilient.RunTCPSaturation(ctx, resilient.SaturationOptions{N: logN, Messages: satMsgs})
		if err != nil {
			r.count(satMsgs, satMsgs)
			r.problem("netxport saturation: %v", err)
			break
		}
		r.count(satMsgs, 0)
		rates = append(rates, rep.MsgsPerSec)
	}
	r.put("netxport.sat_msgs_per_s", "1/s", quantile(rates, 0.5))

	eps, err := mesh(2)
	if err != nil {
		return fmt.Errorf("netxport mesh: %w", err)
	}
	defer closeMesh(eps)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			m, err := eps[1].Recv()
			if err != nil {
				return
			}
			if eps[1].Send(0, m) != nil {
				return
			}
		}
	}()
	ping := msg.Val(0, 1, msg.V1)
	var rtts []float64
	end = time.Now().Add(budget / 2)
	for i := 0; i < 100 || time.Now().Before(end); i++ {
		start := time.Now()
		if err := eps[0].Send(1, ping); err != nil {
			return fmt.Errorf("netxport ping: %w", err)
		}
		pong, err := eps[0].Recv()
		if err != nil {
			return fmt.Errorf("netxport pong: %w", err)
		}
		if i >= 20 { // the first round trips dial
			rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
		}
		if pong.Kind != ping.Kind || pong.Phase != ping.Phase || pong.Value != ping.Value {
			r.problem("netxport: ping %v came back as %v", ping, pong)
		}
	}
	r.count(len(rtts), 0)
	r.put("netxport.rtt_us", "us", quantile(rtts, 0.5))
	closeMesh(eps)
	<-echoed
	return nil
}

// instanceMachines builds one log slot's n=7 Figure-2 machines, all with
// input 1.
func instanceMachines() ([]core.Machine, error) {
	p := resilient.ProtocolMalicious
	machines := make([]core.Machine, logN)
	for i := range machines {
		m, err := resilient.NewMachine(p, resilient.MachineConfig{N: logN, K: p.MaxFaults(logN), Self: resilient.ID(i), Input: msg.V1})
		if err != nil {
			return nil, err
		}
		machines[i] = m
	}
	return machines, nil
}

// livenetLayer times livenet.RunInstance for one n=7 Figure-2 instance run
// alone, as a log slot runs it: fresh machines, and conns that are either
// netxport instance conns on one long-lived TCP mesh or a fresh
// transport.Mem system. It returns the TCP median in ms.
func livenetLayer(r *run, budget time.Duration) (float64, error) {
	eps, err := mesh(logN)
	if err != nil {
		return 0, fmt.Errorf("livenet mesh: %w", err)
	}
	defer closeMesh(eps)
	inst := uint32(0)
	tcpConns := func() ([]transport.Conn, func(), error) {
		inst++
		conns := make([]transport.Conn, logN)
		for i, ep := range eps {
			c, err := ep.Instance(inst)
			if err != nil {
				return nil, nil, err
			}
			conns[i] = c
		}
		return conns, func() {}, nil
	}
	memConns := func() ([]transport.Conn, func(), error) {
		mem := transport.NewMem(logN)
		conns := make([]transport.Conn, logN)
		for i := range conns {
			c, err := mem.Conn(msg.ID(i))
			if err != nil {
				mem.Close()
				return nil, nil, err
			}
			conns[i] = c
		}
		return conns, mem.Close, nil
	}
	var tcpMS float64
	for _, engine := range []struct {
		name  string
		conns func() ([]transport.Conn, func(), error)
	}{{"tcp", tcpConns}, {"mem", memConns}} {
		ms, err := timeInstances(r, engine.conns, budget/2)
		if err != nil {
			return 0, fmt.Errorf("livenet %s: %w", engine.name, err)
		}
		median := quantile(ms, 0.5)
		r.put("livenet.instance_ms."+engine.name, "ms", median)
		if engine.name == "tcp" {
			tcpMS = median
		}
	}
	return tcpMS, nil
}

// timeInstances runs single instances back to back for budget after a
// short warm-up and returns each one's wall time in ms. Each instance must
// decide 1 everywhere.
func timeInstances(r *run, conns func() ([]transport.Conn, func(), error), budget time.Duration) ([]float64, error) {
	run := make([]bool, logN)
	for i := range run {
		run[i] = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout(budget))
	defer cancel()
	var ms []float64
	end := time.Now().Add(budget)
	for i := 0; i < 30 || time.Now().Before(end); i++ {
		start := time.Now()
		machines, err := instanceMachines()
		if err != nil {
			return nil, err
		}
		cs, release, err := conns()
		if err != nil {
			return nil, err
		}
		out, err := livenet.RunInstance(ctx, machines, cs, run, nil)
		release()
		d := time.Since(start)
		if err != nil || !out.Agreement || out.Value != msg.V1 || out.Decided != logN {
			r.count(1, 1)
			r.problem("livenet instance: %+v, err %v", out, err)
			return ms, nil
		}
		r.count(1, 0)
		if i >= 10 {
			ms = append(ms, ms64(d))
		}
	}
	return ms, nil
}
