package bridge

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"pnp/internal/blocks"
	"pnp/internal/pnprt"
)

// SimulationConfig configures an executable bridge run: the same design
// as the models, with cars and controllers as goroutines over runtime
// connectors.
type SimulationConfig struct {
	CarsPerSide int
	N           int // per-turn quota
	Crossings   int // crossings per car
	EnterSend   blocks.SendPortKind
}

func (c SimulationConfig) withDefaults() SimulationConfig {
	if c.CarsPerSide == 0 {
		c.CarsPerSide = 2
	}
	if c.N == 0 {
		c.N = 1
	}
	if c.Crossings == 0 {
		c.Crossings = 10
	}
	if c.EnterSend == 0 {
		c.EnterSend = blocks.SynBlockingSend
	}
	return c
}

// SimulationResult reports what the monitored bridge observed.
type SimulationResult struct {
	Crossings  int // completed crossings
	Collisions int // moments with cars of both colors on the bridge
	MaxOn      int // peak cars on the bridge at once
}

// bridgeMonitor is the shared physical bridge: cars enter and leave, and
// it records any moment with both colors present.
type bridgeMonitor struct {
	mu         sync.Mutex
	blueOn     int
	redOn      int
	collisions int
	maxOn      int
	crossings  int
}

func (m *bridgeMonitor) enter(color int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if color == 0 {
		m.blueOn++
	} else {
		m.redOn++
	}
	if m.blueOn > 0 && m.redOn > 0 {
		m.collisions++
	}
	if on := m.blueOn + m.redOn; on > m.maxOn {
		m.maxOn = on
	}
}

func (m *bridgeMonitor) leave(color int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if color == 0 {
		m.blueOn--
	} else {
		m.redOn--
	}
	m.crossings++
}

// Simulate runs the exactly-N bridge on the goroutine runtime: real cars,
// real controllers, real connectors. With synchronous enter sends the
// result reports zero collisions; with asynchronous ones collisions can
// (and under load do) occur — the executable twin of experiment E8/E9.
//
// CarsPerSide*Crossings should be divisible by N so the final admission
// batch fills; otherwise the run only ends when ctx expires.
func Simulate(ctx context.Context, cfg SimulationConfig) (*SimulationResult, error) {
	cfg = cfg.withDefaults()
	// The runtime connectors are the verified design's own.
	d, err := design(Config{Variant: ExactlyN, CarsPerSide: cfg.CarsPerSide, N: cfg.N, EnterSend: cfg.EnterSend})
	if err != nil {
		return nil, err
	}

	type side struct {
		enter *pnprt.Connector
		exit  *pnprt.Connector // where this side's cars REPORT exits (far end)
	}
	blueEnter, err := d.RuntimeConnector("BlueEnter")
	if err != nil {
		return nil, err
	}
	redEnter, err := d.RuntimeConnector("RedEnter")
	if err != nil {
		return nil, err
	}
	redExit, err := d.RuntimeConnector("RedExit")
	if err != nil {
		return nil, err
	}
	blueExit, err := d.RuntimeConnector("BlueExit")
	if err != nil {
		return nil, err
	}
	blue := side{enter: blueEnter, exit: redExit}
	red := side{enter: redEnter, exit: blueExit}

	monitor := &bridgeMonitor{}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var carWG sync.WaitGroup
	type carPorts struct {
		enter pnprt.Sender
		exit  pnprt.Sender
		color int
	}
	var cars []carPorts
	for color, s := range []side{blue, red} {
		for i := 0; i < cfg.CarsPerSide; i++ {
			e, err := s.enter.NewSender()
			if err != nil {
				return nil, err
			}
			x, err := s.exit.NewSender()
			if err != nil {
				return nil, err
			}
			cars = append(cars, carPorts{enter: e, exit: x, color: color})
		}
	}

	type ctlPorts struct {
		enter pnprt.Receiver
		exit  pnprt.Receiver
	}
	blueEnterRecv, err := blueEnter.NewReceiver()
	if err != nil {
		return nil, err
	}
	blueExitRecv, err := blueExit.NewReceiver()
	if err != nil {
		return nil, err
	}
	redEnterRecv, err := redEnter.NewReceiver()
	if err != nil {
		return nil, err
	}
	redExitRecv, err := redExit.NewReceiver()
	if err != nil {
		return nil, err
	}
	ctls := []struct {
		ports        ctlPorts
		startsActive bool
	}{
		{ctlPorts{blueEnterRecv, blueExitRecv}, true},
		{ctlPorts{redEnterRecv, redExitRecv}, false},
	}

	for _, c := range []*pnprt.Connector{blueEnter, redEnter, redExit, blueExit} {
		if err := c.Start(ctx); err != nil {
			return nil, err
		}
		defer c.Stop()
	}

	// Controllers: admit n requests, then wait for n exits, forever.
	var ctlWG sync.WaitGroup
	for _, ctl := range ctls {
		ctl := ctl
		ctlWG.Add(1)
		go func() {
			defer ctlWG.Done()
			if !ctl.startsActive {
				for i := 0; i < cfg.N; i++ {
					if _, _, err := ctl.ports.exit.Receive(ctx, pnprt.RecvRequest{}); err != nil {
						return
					}
				}
			}
			for {
				for i := 0; i < cfg.N; i++ {
					if _, _, err := ctl.ports.enter.Receive(ctx, pnprt.RecvRequest{}); err != nil {
						return
					}
				}
				for i := 0; i < cfg.N; i++ {
					if _, _, err := ctl.ports.exit.Receive(ctx, pnprt.RecvRequest{}); err != nil {
						return
					}
				}
			}
		}()
	}

	// Cars: request entry, cross (monitored), report the exit.
	errCh := make(chan error, len(cars))
	for i, car := range cars {
		car := car
		i := i
		carWG.Add(1)
		go func() {
			defer carWG.Done()
			for k := 0; k < cfg.Crossings; k++ {
				st, err := car.enter.Send(ctx, pnprt.Message{Data: i})
				if err != nil {
					return // cancelled
				}
				if st != pnprt.SendSucc {
					errCh <- fmt.Errorf("car %d: enter status %v", i, st)
					return
				}
				monitor.enter(car.color)
				runtime.Gosched() // time on the bridge: let overlap show
				monitor.leave(car.color)
				if _, err := car.exit.Send(ctx, pnprt.Message{Data: i}); err != nil {
					return
				}
			}
		}()
	}

	carWG.Wait()
	cancel() // release the controllers and ports
	ctlWG.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	monitor.mu.Lock()
	defer monitor.mu.Unlock()
	return &SimulationResult{
		Crossings:  monitor.crossings,
		Collisions: monitor.collisions,
		MaxOn:      monitor.maxOn,
	}, nil
}
