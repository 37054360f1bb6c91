package platform_test

import (
	"fmt"
	"log"

	"nopower/internal/platform"
)

// The §6.1 component/platform coordination sketch: a server is three
// power-manageable components — CPU, memory, disk — coupled by the
// bottleneck law, so capping it well means co-selecting their states. A
// CPU-only capper pins memory and disk at full speed and throttles the CPU
// alone; the MIMO capper harvests the idle memory and disk states first,
// serves more work at every budget the CPU-only capper can meet, and keeps
// degrading gracefully where the CPU-only capper goes infeasible.
func ExamplePlatform_Optimize() {
	p := platform.Standard()
	demand := platform.Demand{0.45, 0.2, 0.1} // CPU-heavy web-style load
	fmt.Printf("max power %.0f W\n", p.MaxPower())
	fmt.Println("budget  CPU-only served/power  MIMO served/power")
	for _, frac := range []float64{1.0, 0.8, 0.6, 0.5, 0.45} {
		budget := frac * p.MaxPower()

		cpuOnly := "infeasible"
		best := -1.0
		for cpu := range p.Components[0].States {
			served, power, err := p.Evaluate([]int{cpu, 0, 0}, demand)
			if err != nil {
				log.Fatal(err)
			}
			if power <= budget && served > best {
				best = served
				cpuOnly = fmt.Sprintf("%5.1f %% / %5.1f W", 100*served, power)
			}
		}

		_, served, power, ok, err := p.Optimize(demand, budget)
		if err != nil {
			log.Fatal(err)
		}
		mimo := fmt.Sprintf("%5.1f %% / %5.1f W", 100*served, power)
		if !ok {
			mimo += " (max throttle)"
		}
		fmt.Printf("%6.0f  %-22s  %s\n", budget, cpuOnly, mimo)
	}
	// Output:
	// max power 116 W
	// budget  CPU-only served/power  MIMO served/power
	//    116  100.0 % /  79.0 W       100.0 % /  53.4 W
	//     93  100.0 % /  79.0 W       100.0 % /  53.4 W
	//     70  100.0 % /  68.5 W       100.0 % /  53.4 W
	//     58  infeasible              100.0 % /  53.4 W
	//     52  infeasible              100.0 % /  53.4 W (max throttle)
}
