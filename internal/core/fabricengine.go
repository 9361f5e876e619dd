package core

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/mesh"
	"repro/internal/physics"
)

// portOf maps an in-plane mesh direction to its fabric port.
func portOf(d mesh.Direction) fabric.Port {
	switch d {
	case mesh.West:
		return fabric.PortWest
	case mesh.East:
		return fabric.PortEast
	case mesh.North:
		return fabric.PortNorth
	case mesh.South:
		return fabric.PortSouth
	default:
		panic(fmt.Sprintf("core: direction %v has no fabric port", d))
	}
}

// cardColor returns the color of a cardinal column that arrives from mesh
// direction d.
func cardColor(d mesh.Direction) fabric.Color {
	switch d {
	case mesh.West:
		return colorCardFromW
	case mesh.East:
		return colorCardFromE
	case mesh.North:
		return colorCardFromN
	case mesh.South:
		return colorCardFromS
	default:
		panic(fmt.Sprintf("core: no cardinal color for %v", d))
	}
}

// diagColor returns the color of a relayed diagonal column that arrives on
// fabric port p at its final receiver.
func diagColor(p fabric.Port) fabric.Color {
	switch p {
	case fabric.PortNorth:
		return colorDiagFromN
	case fabric.PortEast:
		return colorDiagFromE
	case fabric.PortSouth:
		return colorDiagFromS
	case fabric.PortWest:
		return colorDiagFromW
	default:
		panic(fmt.Sprintf("core: no diagonal color for port %v", p))
	}
}

// cornerOf returns the mesh corner a diagonal column arriving on port p
// originated from (§5.2.2): the NW corner's data arrives via the north
// intermediary, and so on around the rotation.
func cornerOf(p fabric.Port) mesh.Direction {
	switch p {
	case fabric.PortNorth:
		return mesh.NorthWest
	case fabric.PortEast:
		return mesh.NorthEast
	case fabric.PortSouth:
		return mesh.SouthEast
	case fabric.PortWest:
		return mesh.SouthWest
	default:
		panic(fmt.Sprintf("core: no corner for port %v", p))
	}
}

// cardinalDirs is the send/receive order for cardinal exchanges.
var cardinalDirs = [4]mesh.Direction{mesh.West, mesh.East, mesh.North, mesh.South}

// installRoutes configures a PE's static routes for the flux protocol:
// cardinal colors flow ramp→link on the sender and link→ramp on the
// receiver; diagonal colors flow ramp→link on the clockwise-turning
// intermediary and link→ramp at the final receiver.
func installRoutes(pe *fabric.PE, diagonals bool) error {
	for _, d := range cardinalDirs {
		p := portOf(d)
		if !pe.HasNeighbor(p) {
			continue
		}
		// Receive the neighbor-in-direction-d column from port p.
		if err := pe.Router().SetRoute(cardColor(d), 0, p, fabric.PortRamp); err != nil {
			return err
		}
		// Send the own column toward d; it arrives at the neighbor from the
		// opposite direction, hence the opposite color.
		if err := pe.Router().SetRoute(cardColor(d.Opposite()), 0, fabric.PortRamp, p); err != nil {
			return err
		}
	}
	if !diagonals {
		return nil
	}
	for _, ap := range fabric.LinkPorts {
		c := diagColor(ap)
		if pe.HasNeighbor(ap) {
			// Final hop: relayed corner data arrives on ap.
			if err := pe.Router().SetRoute(c, 0, ap, fabric.PortRamp); err != nil {
				return err
			}
		}
		// Intermediary hop: this PE forwards out of the opposite port.
		if out := ap.Opposite(); pe.HasNeighbor(out) {
			if err := pe.Router().SetRoute(c, 0, fabric.PortRamp, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// colStream tracks one expected per-application column. Neighbors may run
// one application ahead (they finish their receive phase independently), so
// a stream can accumulate up to one extra column of next-application data;
// the consumed prefix is dropped and the remainder carries over.
type colStream struct {
	dirIdx int  // mesh.Direction index of the data's origin
	isCard bool // cardinal columns are forwarded after arrival
	port   fabric.Port
	want   int
	buf    []float32
	done   bool // column for the current application already processed
}

// RunFabric executes the dataflow TPFA on the goroutine-per-PE wavelet
// fabric — the functional twin of the paper's CSL implementation.
func RunFabric(m *mesh.Mesh, fl physics.Fluid, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(m, fl); err != nil {
		return nil, err
	}
	nx, ny, nz := m.Dims.Nx, m.Dims.Ny, m.Dims.Nz
	fab, err := fabric.New(fabric.Config{
		Width:       nx,
		Height:      ny,
		MemWords:    opts.MemWords,
		LinkBuffer:  8*nz + 64,
		RampBuffer:  32*nz + 256,
		RecvTimeout: opts.RecvTimeout,
	})
	if err != nil {
		return nil, err
	}

	flLin := fl.WithModel(physics.DensityLinear)
	states := make([]peState, nx*ny)
	send := make([]float32, len(states)*2*nz)
	err = fab.ForEachPE(func(pe *fabric.PE) error {
		if err := installRoutes(pe, opts.Diagonals); err != nil {
			return err
		}
		i := pe.Y*nx + pe.X
		return states[i].layout(pe.Eng, m.Dims, flLin, pe.X, pe.Y, opts, send[i*2*nz:(i+1)*2*nz])
	})
	if err != nil {
		return nil, err
	}
	// Host load: the whole grid is one band of the flat engine's loaders.
	loadStatic(states, m, flLin, opts)
	loadPressure(states, m.Pressure)

	start := time.Now()
	err = fab.Run(func(pe *fabric.PE) error {
		return fluxWorker(pe, &states[pe.Y*nx+pe.X], opts)
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}

	res := summarize("fabric", states, m.Dims, opts, elapsed)
	tot := fab.Totals()
	res.FabricTotals = &tot
	if tot.DroppedAtStop != 0 {
		return nil, fmt.Errorf("core: %d wavelets still in flight at shutdown — protocol error", tot.DroppedAtStop)
	}
	return res, nil
}

// fluxWorker is the per-PE program: for every application it perturbs its
// column, broadcasts it to the four cardinal neighbors, computes the
// vertical faces while data is in flight (§5.3.2 overlap), then processes
// columns as they complete — forwarding cardinal data clockwise for the
// diagonal exchange and evaluating each face's fluxes immediately — and
// finally assembles the residual.
func fluxWorker(pe *fabric.PE, s *peState, opts Options) error {
	streams := make(map[fabric.Color]*colStream)
	for _, d := range cardinalDirs {
		if !s.hasNbr[int(d)] {
			continue
		}
		streams[cardColor(d)] = &colStream{
			dirIdx: int(d), isCard: true, port: portOf(d), want: 2 * s.nz,
		}
	}
	if opts.Diagonals {
		for _, ap := range fabric.LinkPorts {
			corner := cornerOf(ap)
			if !s.hasNbr[int(corner)] {
				continue
			}
			streams[diagColor(ap)] = &colStream{
				dirIdx: int(corner), port: ap, want: 2 * s.nz,
			}
		}
	}

	// process consumes the current application's column from a stream:
	// forward it clockwise (intermediary duty, §5.2.2), store it into the
	// neighbor buffers, and evaluate that face group immediately (§5.3.2).
	process := func(st *colStream) error {
		data := st.buf[:st.want]
		if st.isCard && opts.Diagonals {
			if t := st.port.ClockwiseTurn(); pe.HasNeighbor(t) {
				pe.SendColumn(diagColor(t.Opposite()), data)
			}
		}
		if err := s.receiveColumn(st.dirIdx, data); err != nil {
			return err
		}
		if !opts.CommOnly {
			s.computeFace(mesh.Direction(st.dirIdx))
		}
		st.buf = append(st.buf[:0], st.buf[st.want:]...)
		st.done = true
		return nil
	}

	for app := 0; app < opts.Apps; app++ {
		if app > 0 {
			s.perturb(app)
		}
		if !opts.CommOnly {
			s.beginApplication()
		}
		own := s.ownColumn()
		for _, d := range cardinalDirs {
			if s.hasNbr[int(d)] {
				pe.SendColumn(cardColor(d.Opposite()), own)
			}
		}
		if !opts.CommOnly {
			s.computeVerticalFaces() // overlapped with communication
		}
		// Columns that fully arrived while we finished the previous
		// application are this application's data: process them first.
		remaining := 0
		for _, st := range streams {
			st.done = false
			if len(st.buf) >= st.want {
				if err := process(st); err != nil {
					return err
				}
				continue
			}
			remaining++
		}
		for remaining > 0 {
			w, err := pe.Recv()
			if err != nil {
				return fmt.Errorf("app %d: %w", app, err)
			}
			st, ok := streams[w.Color]
			if !ok {
				return fmt.Errorf("core: PE(%d,%d) app %d: unexpected color %d", pe.X, pe.Y, app, w.Color)
			}
			if len(st.buf) >= 2*st.want {
				return fmt.Errorf("core: PE(%d,%d) app %d: color %d overran two applications", pe.X, pe.Y, app, w.Color)
			}
			st.buf = append(st.buf, w.F32())
			if st.done || len(st.buf) < st.want {
				continue
			}
			if err := process(st); err != nil {
				return err
			}
			remaining--
		}
		if !opts.CommOnly {
			// Fabric-edge faces have no incoming column; their Υ = 0 face
			// groups are still evaluated (uniform kernel code on every PE),
			// exactly like the flat engine, yielding zero flux.
			for i, d := range xyDirections {
				if s.hasNbr[i] {
					continue
				}
				if !opts.Diagonals && d.IsDiagonal() {
					continue
				}
				s.computeFace(d)
			}
			s.assemble()
		}
	}
	return nil
}
