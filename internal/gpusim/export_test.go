package gpusim

import "github.com/plutus-gpu/plutus/internal/sim"

// WarmEventQueues grows every bucket of every shard's calendar ring to
// hold perCycle events, then drains the queues: the gate measures the
// request path, not the event queue's one-time growth in a fresh GPU.
func WarmEventQueues(g *GPU, perCycle int) {
	const ring = 4096 // sim's ring span, in cycles
	for i := 0; i < g.cluster.Shards(); i++ {
		eng := g.cluster.Shard(i).Engine()
		for n := 0; n < perCycle; n++ {
			for d := sim.Cycle(0); d < ring; d++ {
				eng.Schedule(d, nop)
			}
		}
	}
	g.cluster.Run(0)
}

func nop() {}
