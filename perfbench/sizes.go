package main

import "time"

// sizes are the input sizes of the generated workloads. fullSize is what
// the benchmark measures; tinySize keeps the smoke test fast.
type sizes struct {
	yearJobs   int // year-sweep: jobs in the Alibaba year
	sweepCells int // year-sweep: reserved-capacity cells per sweep

	spotJobs     int // engine-mix: Spot-RES year
	waitJobs     int // engine-mix: WaitAwhile suspend-resume year
	elasticJobs  int // engine-mix: Greedy-Marginal malleable year
	dagPipelines int // engine-mix: 5-stage pipelines (6 edges each)
	protoJobs    int // engine-mix: prototype week trace

	serveRate   float64       // serve-mix: requests per second
	serveWindow time.Duration // serve-mix: schedule length of one pass
	batchJobs   int           // serve-mix: jobs per /v1/advise/batch
	simJobs     int           // serve-mix: jobs per /v1/simulate
	simDays     int           // serve-mix: days per /v1/simulate
}

func fullSize() sizes {
	return sizes{
		yearJobs: 1_000_000, sweepCells: 8,
		spotJobs: 200_000, waitJobs: 50_000, elasticJobs: 20_000, dagPipelines: 2000, protoJobs: 1200,
		serveRate: 1000, serveWindow: time.Second, batchJobs: 256, simJobs: 2000, simDays: 7,
	}
}

func tinySize() sizes {
	return sizes{
		yearJobs: 2000, sweepCells: 3,
		spotJobs: 1000, waitJobs: 500, elasticJobs: 300, dagPipelines: 40, protoJobs: 100,
		serveRate: 2000, serveWindow: 500 * time.Millisecond, batchJobs: 8, simJobs: 50, simDays: 2,
	}
}
