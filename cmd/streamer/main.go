// Command streamer sends or receives a smoothed video stream over TCP:
// the deployable form of the whole pipeline. The sender smooths a trace
// (standing in for live encoder output — an incremental Session
// computes the identical schedule), paces each picture at its scheduled
// rate, and declares every rate change with a notify(i, rate) message;
// the receiver verifies integrity and reports observed timing.
//
// Usage:
//
//	streamer recv -listen 127.0.0.1:8402
//	streamer send -connect 127.0.0.1:8402 -seq driving1 -D 0.2 -timescale 10
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"mpegsmooth"
	"mpegsmooth/internal/faultnet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "send":
		err = send(os.Args[2:])
	case "recv":
		err = recv(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "streamer: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: streamer send|recv [flags]")
	os.Exit(2)
}

func send(args []string) error {
	fs := flag.NewFlagSet("send", flag.ExitOnError)
	var (
		connect   = fs.String("connect", "127.0.0.1:8402", "receiver address")
		seq       = fs.String("seq", "driving1", "sequence: driving1, driving2, tennis, backyard")
		pictures  = fs.Int("pictures", 270, "trace length")
		seed      = fs.Int64("seed", 1, "trace seed")
		k         = fs.Int("K", 1, "known pictures before sending")
		d         = fs.Float64("D", 0.2, "delay bound (seconds)")
		policy    = fs.String("policy", "basic", "rate policy: basic, moving-average, capped:<bps>, min-var")
		timescale = fs.Float64("timescale", 1, "replay speed multiplier (1 = real time)")
		handshake = fs.Bool("handshake", false, "declare the stream to a smoothd server and await admission before sending")
		retries   = fs.Int("retries", 8, "max consecutive reconnect attempts before abandoning the stream (handshake mode)")
		writeTO   = fs.Duration("write-timeout", 30*time.Second, "per-message write deadline (0 = none)")
		integrity = fs.String("integrity", "fnv", "prefix-integrity mode for the handshake: fnv or hmac-sha256:<keyfile> (must match the server's)")
		datagram  = fs.Bool("datagram", false, "dial UDP and run the stream over the selective-repeat ARQ datagram transport")
		reorder   = fs.Float64("reorder", 0, "datagram chaos: probability a sent packet is held and re-emitted late")
		burstLoss = fs.Float64("burst-loss", 0, "datagram chaos: Gilbert-Elliott burst entry probability per packet (bursts drop ~90% of packets)")
		fading    = fs.Duration("fading", 0, "datagram chaos: block-fading coherence time, 10% of blocks in outage (0 = disabled)")
	)
	fs.Parse(args)
	nw, err := chaosInjector(*datagram, *reorder, *burstLoss, *fading, *seed)
	if err != nil {
		return err
	}
	dialStream := func(ctx context.Context, addr string) (net.Conn, error) {
		if !*datagram {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
		raddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		udp, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return nil, err
		}
		var pc net.Conn = udp
		if nw != nil {
			pc = nw.WrapConn(pc)
		}
		return mpegsmooth.NewDatagramClientConn(pc, mpegsmooth.DatagramConfig{}), nil
	}
	mode, key, err := mpegsmooth.ParseIntegrity(*integrity)
	if err != nil {
		return err
	}

	gens := map[string]func(int, int64) (*mpegsmooth.Trace, error){
		"driving1": mpegsmooth.Driving1,
		"driving2": mpegsmooth.Driving2,
		"tennis":   mpegsmooth.Tennis,
		"backyard": mpegsmooth.Backyard,
	}
	gen, ok := gens[strings.ToLower(*seq)]
	if !ok {
		return fmt.Errorf("unknown sequence %q", *seq)
	}
	tr, err := gen(*pictures, *seed)
	if err != nil {
		return err
	}
	pol, err := mpegsmooth.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	sched, err := mpegsmooth.Smooth(tr, mpegsmooth.Config{K: *k, H: tr.GOP.N, D: *d, Policy: pol})
	if err != nil {
		return err
	}
	if err := mpegsmooth.Verify(sched); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	payloads := make([][]byte, tr.Len())
	for i, bits := range tr.Sizes {
		payloads[i] = make([]byte, (bits+7)/8)
		rng.Read(payloads[i])
	}

	fmt.Printf("sending %s: %d pictures over %.1f s of schedule at %gx speed to %s\n",
		tr.Name, tr.Len(), sched.Depart[tr.Len()-1], *timescale, *connect)
	start := time.Now()
	if *handshake {
		// Admission handshake plus reconnect-and-resume: a transient
		// fault (corruption, reset, timeout) redials with backoff and
		// replays from the server's NextIndex instead of failing.
		rs := &mpegsmooth.ResumableSender{
			Sender: mpegsmooth.Sender{TimeScale: *timescale, WriteTimeout: *writeTO},
			Dial: func(ctx context.Context) (net.Conn, error) {
				return dialStream(ctx, *connect)
			},
			// A sharded fleet answers a misdirected handshake with a
			// redirect verdict; follow it to the owning shard.
			DialAddr: dialStream,
			Hello: mpegsmooth.StreamHello{
				Tau: tr.Tau, GOP: tr.GOP, K: *k, D: *d,
				Pictures: tr.Len(), PeakRate: sched.PeakRate(),
			},
			MaxAttempts: *retries,
			Integrity:   mode,
			Key:         key,
			OnEvent: func(ev mpegsmooth.ResumeEvent) {
				switch {
				case ev.AlreadyComplete:
					fmt.Fprintf(os.Stderr,
						"warning: completion ack was lost; server confirmed all %d pictures already accepted\n",
						ev.NextIndex)
				case ev.Resumed:
					fmt.Printf("resumed at picture %d\n", ev.NextIndex)
				default:
					fmt.Printf("stream fault (%s, attempt %d): %v\n", ev.Class, ev.Attempt, ev.Err)
				}
			},
		}
		res, err := rs.StreamSchedule(context.Background(), sched, payloads)
		if err != nil {
			return err
		}
		fmt.Printf("admitted at peak %.0f bps (%.0f bps still available)\n",
			sched.PeakRate(), res.Verdict.Available)
		if res.Resumes > 0 {
			fmt.Printf("survived %d disconnect(s)\n", res.Resumes)
		}
		if res.AlreadyComplete {
			fmt.Println("delivery confirmed via already-complete verdict (lost-ack recovery)")
		}
	} else {
		conn, err := dialStream(context.Background(), *connect)
		if err != nil {
			return err
		}
		defer conn.Close()
		sender := &mpegsmooth.Sender{TimeScale: *timescale, WriteTimeout: *writeTO}
		if err := sender.Send(context.Background(), mpegsmooth.NewFrameWriter(conn), sched, payloads); err != nil {
			return err
		}
	}
	if nw != nil {
		c := nw.Counts()
		fmt.Printf("chaos injected: %d dropped, %d burst-dropped, %d fade-dropped, %d duplicated, %d reordered\n",
			c.Dropped, c.BurstDropped, c.FadeDropped, c.Duplicated, c.Reordered)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// chaosInjector builds the packet fault injector the datagram chaos
// flags describe, or nil when none are set.
func chaosInjector(datagram bool, reorder, burstLoss float64, fading time.Duration,
	seed int64) (*faultnet.PacketNet, error) {
	if reorder == 0 && burstLoss == 0 && fading == 0 {
		return nil, nil
	}
	if !datagram {
		return nil, fmt.Errorf("-reorder, -burst-loss, and -fading require -datagram")
	}
	return faultnet.NewPacketNet(faultnet.PacketConfig{
		Seed:        seed,
		ReorderProb: reorder,
		Burst:       faultnet.PacketBurst{EnterProb: burstLoss},
		Fading:      faultnet.FadingConfig{Coherence: fading, OutageProb: 0.1},
	}), nil
}

func recv(args []string) error {
	fs := flag.NewFlagSet("recv", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8402", "listen address")
	once := fs.Bool("once", true, "exit after one session")
	readTO := fs.Duration("read-timeout", 30*time.Second, "per-message read deadline (0 = none)")
	datagram := fs.Bool("datagram", false, "listen on UDP and accept ARQ datagram flows")
	fs.Parse(args)

	var ln net.Listener
	if *datagram {
		pc, err := net.ListenPacket("udp", *listen)
		if err != nil {
			return err
		}
		ln = mpegsmooth.ListenDatagram(pc, mpegsmooth.DatagramConfig{})
	} else {
		var err error
		ln, err = net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
	}
	defer ln.Close()
	fmt.Printf("listening on %s\n", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if err := serveOne(conn, *readTO); err != nil {
			fmt.Fprintf(os.Stderr, "session: %v\n", err)
		}
		if *once {
			return nil
		}
	}
}

func serveOne(conn net.Conn, readTimeout time.Duration) error {
	defer conn.Close()
	fmt.Printf("session from %s\n", conn.RemoteAddr())
	rc := &mpegsmooth.Receiver{ReadTimeout: readTimeout}
	report, err := rc.Receive(context.Background(), conn)
	if err != nil {
		return err
	}
	fmt.Printf("received %d pictures, %d bytes, %d rate notifications, in %v\n",
		len(report.Pictures), report.TotalBytes(), len(report.Notifications),
		report.Elapsed.Round(time.Millisecond))
	if len(report.Pictures) > 0 {
		var iN, pN, bN int
		for _, p := range report.Pictures {
			switch p.Type {
			case mpegsmooth.TypeI:
				iN++
			case mpegsmooth.TypeP:
				pN++
			default:
				bN++
			}
		}
		fmt.Printf("picture types: %d I, %d P, %d B\n", iN, pN, bN)
		mean := float64(report.TotalBytes()) * 8 / report.Elapsed.Seconds()
		fmt.Printf("mean received rate %.3f Mbps\n", mean/1e6)
	}
	return nil
}
