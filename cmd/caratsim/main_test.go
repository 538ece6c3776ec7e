package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"carat"
)

// parse runs parseConfig on a fresh flag set.
func parse(args string) (*config, error) {
	fs := flag.NewFlagSet("caratsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseConfig(fs, strings.Fields(args))
}

// built parses args and builds the workload of its first size.
func built(t *testing.T, args string) carat.Workload {
	t.Helper()
	c, err := parse(args)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	wl, err := c.build(c.shape.Sizes()[0])
	if err != nil {
		t.Fatalf("%q: build: %v", args, err)
	}
	return wl
}

// TestModesBuildTheSameWorkload pins the builder contract: the single-run,
// chaos and trace modes — on a named workload or a scale fleet — build
// the identical workload from the same workload flags, and every one of
// those flags reaches it.
func TestModesBuildTheSameWorkload(t *testing.T) {
	for _, flags := range []string{
		"-sites 4 -cc occ",
		"-sites 16 -placement hash -locality 0.5 -lambda 0.3 -dbsize 600 -logdisk -repl R=2",
		"-workload MB8 -n 4 -cc quecc -dbsize 200 -stripes 2 -cpus 2",
		"-workload LB8 -buffer 0.5 -think 100 -pattern zipf -zipftheta 0.8 -repl R=2,read=quorum",
		"-hot 0.1 -hotfrac 0.9 -open -lambda 2 -classes kind=LU;kind=DU,n=4 -burstfactor 3 -burston 500 -burstoff 2000",
		"-open -ramp 0:0.5,60000:2",
	} {
		single := built(t, flags)
		for _, mode := range []string{"-trace -txn 3", "-chaos 2 -chaospartitions"} {
			if got := built(t, flags+" "+mode); !reflect.DeepEqual(got, single) {
				t.Errorf("%q: %s builds a different workload than the single run", flags, mode)
			}
		}
	}
	// Faults and resilience reach every mode but chaos, which draws its own.
	for _, flags := range []string{
		"-faults crash=1@60000+10000,lockto=5000 -partition 0|1@30000+20000 -graysites 1@30000+20000*3",
		"-sites 4 -resilience mpl=2,shed=1 -faults loss=0.01",
	} {
		if !reflect.DeepEqual(built(t, flags+" -trace"), built(t, flags)) {
			t.Errorf("%q: -trace builds a different workload than the single run", flags)
		}
	}
	for _, pair := range [][2]string{
		{"-sites 4 -cc occ", "-sites 4"},
		{"-chaos 2 -dbsize 200", "-chaos 2"},
		{"-trace -sites 4 -stripes 2", "-trace -sites 4"},
		{"-sites 4 -resilience mpl=2", "-sites 4"},
		{"-chaos 2 -repl R=2", "-chaos 2"},
		{"-lambdas 1 -open", "-lambdas 1"},
		{"-open -lambda 2", "-open -lambda 1"},
	} {
		if reflect.DeepEqual(built(t, pair[0]), built(t, pair[1])) {
			t.Errorf("%q builds the same workload as %q: a flag was dropped", pair[0], pair[1])
		}
	}
}

// TestCapacitySweepKeepsClosedUsers pins the one mode-dependent step: a
// -lambdas sweep keeps the closed population (its model bound and default
// mix need it), while -open alone replaces it.
func TestCapacitySweepKeepsClosedUsers(t *testing.T) {
	if _, err := carat.SolveModel(built(t, "-lambdas 1 -open")); err != nil {
		t.Errorf("-lambdas -open dropped the closed users: %v", err)
	}
	if _, err := carat.SolveModel(built(t, "-open")); err == nil {
		t.Error("-open kept the closed users")
	}
}

// TestFlagConflictsRejected pins that a flag the selected mode cannot
// honour is an error naming both sides, never silently ignored.
func TestFlagConflictsRejected(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-trace -sweep", "-trace cannot be combined with -sweep"},
		{"-trace -reps 3", "-trace cannot be combined with -reps"},
		{"-trace -lambdas 1", "-trace cannot be combined with -lambdas"},
		{"-trace -ccsweep 1", "-trace cannot be combined with -ccsweep"},
		{"-trace -scalesweep 0.5", "-trace cannot be combined with -scalesweep"},
		{"-trace -chaos 2", "-trace cannot be combined with -chaos"},
		{"-trace -json", "-trace cannot be combined with -json"},
		{"-chaos 2 -faults loss=0.1", "-chaos cannot be combined with -faults"},
		{"-chaos 2 -partition 0|1@1000+1000", "-chaos cannot be combined with -partition"},
		{"-chaos 2 -graysites 1@0+1000*2", "-chaos cannot be combined with -graysites"},
		{"-chaos 2 -resilience mpl=4", "-chaos cannot be combined with -resilience"},
		{"-chaos 2 -sweep", "-chaos cannot be combined with -sweep"},
		{"-lambdas 1 -ramp 0:1", "-lambdas cannot be combined with -ramp"},
		{"-lambdas 1 -lambda 2", "-lambdas cannot be combined with -lambda"},
		{"-sites 16 -open", "cannot be combined with -open"},
		{"-placement hash -classes kind=LU", "cannot be combined with -classes"},
		{"-locality 0.5 -burstfactor 2", "cannot be combined with -burstfactor"},
		{"-sites 16 -burston 10", "cannot be combined with -burston"},
		{"-sites 16 -burstoff 10", "cannot be combined with -burstoff"},
		{"-scalesweep 0.5 -ramp 0:1", "cannot be combined with -ramp"},
		{"-sites 16 -lambdas 1", "cannot be combined with -lambdas"},
		{"-sites 16 -n 4", "cannot be combined with -n"},
		{"-sites 16 -workload MB8", "cannot be combined with -workload"},
		{"-sites 16 -ccsweep 1", "cannot be combined with -ccsweep"},
		{"-txn 4", "-txn filters -trace output"},
		{"-classes kind=LU", "-classes shapes open arrivals"},
		{"-ramp 0:1", "-ramp shapes open arrivals"},
		{"-trace -burstfactor 2", "-burstfactor shapes open arrivals"},
	} {
		_, err := parse(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want %q", tc.args, err, tc.want)
		}
	}
	for _, ok := range []string{
		"-trace -reps 1 -minutes 0.5",
		"-sweep -reps 3 -lambdas 0.5,1 -open -classes kind=LU",
		"-lambdas 1 -burstfactor 3 -burston 100 -burstoff 100",
		"-chaos 2 -chaospartitions -json -sites 4 -repl R=2",
		"-sites 16 -reps 3 -lambda 0.5",
		"-sites 16 -workload MB4 -n 8",
	} {
		if _, err := parse(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
}

// TestNumericFlagsStrict pins that numeric flags reject non-finite and
// out-of-range values with an error naming the flag.
func TestNumericFlagsStrict(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-minutes NaN", "-minutes"},
		{"-minutes Inf", "-minutes"},
		{"-minutes 0", "-minutes"},
		{"-minutes -1", "-minutes"},
		{"-lambdas abc", "lambdas: "},
		{"-lambdas NaN", "lambdas: "},
		{"-lambdas 1,Inf", "lambdas: "},
		{"-scalesweep abc", "scalesweep: "},
		{"-scalesweep NaN", "scalesweep: "},
		{"-ccsweep x", "ccsweep: "},
		{"-ccsweep 0", "ccsweep: "},
		{"-sites x", "sites: "},
		{"-sites 1", "sites: "},
		{"-sites 16,513", "sites: "},
		{"-locality NaN", "locality: "},
		{"-locality 1.5", "locality: "},
		{"-open -ramp 5", "ramp: "},
		{"-open -ramp 0:NaN", "ramp: "},
		{"-open -ramp Inf:1", "ramp: "},
		{"-faults loss=NaN", "faults: "},
		{"-resilience jitter=NaN", "resilience: "},
		{"-partition mtbf=Inf", "partition: "},
		{"-graysites 1@0+1000*NaN", "graysites: "},
		{"-open -classes kind=LU,weight=NaN", "classes: "},
	} {
		_, err := parse(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want it to name %q", tc.args, err, tc.want)
		}
	}
	// Rates that pass parsing as plain floats are refused when the workload
	// is built or simulated, before any simulated time elapses.
	if c, err := parse("-sites 16 -lambda NaN"); err != nil {
		t.Fatal(err)
	} else if _, err := c.build(8); err == nil || !strings.Contains(err.Error(), "arrival rate") {
		t.Errorf("-sites 16 -lambda NaN: build err = %v", err)
	}
	for _, args := range []string{"-open -lambda Inf", "-open -lambda NaN", "-open -burstfactor Inf -burston 10 -burstoff 10"} {
		wl := built(t, args)
		if _, err := carat.Simulate(wl, carat.SimOptions{Seed: 1, WarmupMS: 1, DurationMS: 1000}); err == nil {
			t.Errorf("%q: simulated", args)
		}
	}
}
