// Multi-site extension: geographic load balancing with per-site
// carbon-deficit queues. Three data centers with different electricity
// prices and renewable positions share one global workload; the split is
// chosen each hour by greedy marginal cost over the sites' P3 optima, so
// load flows toward sites that are currently cheap AND carbon-underspent.
//
// Usage:
//
//	go run ./examples/multisite
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	coca "repro"
)

func main() {
	const slots = 14 * 24
	mkSite := func(name string, priceScale, onsitePeakKW, budgetPerSlot float64, seed uint64) coca.GeoSite {
		p := coca.CAISOYear(seed)
		for i := range p.Values {
			p.Values[i] *= priceScale
		}
		onsite := coca.SolarYear(seed + 1)
		for i := range onsite.Values {
			onsite.Values[i] *= onsitePeakKW
		}
		offsite := coca.WindYear(seed + 2)
		for i := range offsite.Values {
			offsite.Values[i] *= budgetPerSlot * 0.8
		}
		return coca.GeoSite{
			Name:    name,
			Cluster: &coca.Cluster{Groups: []coca.Group{{Type: coca.Opteron(), N: 400}}, Gamma: 0.95, PUE: 1},
			Price:   p,
			Portfolio: &coca.Portfolio{
				OnsiteKW:   onsite,
				OffsiteKWh: offsite,
				RECsKWh:    budgetPerSlot * 0.6 * slots,
				Alpha:      1,
			},
		}
	}
	sites := []coca.GeoSite{
		mkSite("hydro-north", 0.6, 15, 30, 11),
		mkSite("metro-east", 1.4, 3, 20, 22),
		mkSite("desert-west", 0.9, 25, 25, 33),
	}
	sys, err := coca.NewGeoSystem(sites, 0.01, slots)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federation: 3 sites, %0.f req/s total capacity\n\n", sys.TotalCapacityRPS())

	workload := coca.FIUYear(44).ScaledToPeak(0.5 * sys.TotalCapacityRPS())
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "hour\tλ\thydro-north\tmetro-east\tdesert-west\tq(north)\tq(east)\tq(west)")
	var total float64
	for t := 0; t < slots; t++ {
		out, err := sys.GreedyStep(workload.Values[t], 5e4)
		if err != nil {
			log.Fatal(err)
		}
		sys.Settle(out)
		total += out.TotalCostUSD
		if t%24 == 12 && t < 10*24 {
			fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				t, workload.Values[t],
				out.Sites[0].LoadRPS, out.Sites[1].LoadRPS, out.Sites[2].LoadRPS,
				sys.Queue(0), sys.Queue(1), sys.Queue(2))
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntotal federation cost over %d hours: $%.2f\n", slots, total)
	fmt.Println("expected pattern: the expensive metro-east site carries the least load,")
	fmt.Println("and any site whose deficit queue grows sheds load to the others.")
}
