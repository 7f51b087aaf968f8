package main

import (
	"testing"

	"planarflow/internal/cmdtest"
)

func TestSmoke(t *testing.T) {
	out := cmdtest.RunMain(t, "-kind", "grid", "-rows", "4", "-cols", "5")
	cmdtest.ExpectMarkers(t, out, "Euler:", "face cycles verified", "diameter:")
}

func TestSmokeTriangulation(t *testing.T) {
	out := cmdtest.RunMain(t, "-kind", "triangulation", "-n", "24", "-seed", "3", "-view", "summary")
	cmdtest.ExpectMarkers(t, out, "Euler:", "face-disjoint graph")
}

func TestSmokeNested(t *testing.T) {
	out := cmdtest.RunMain(t, "-kind", "nested", "-n", "30")
	cmdtest.ExpectMarkers(t, out, "graph: nested", "face cycles verified", "BDD: leaf limit=")
}

func TestSmokePrimal(t *testing.T) {
	out := cmdtest.RunMain(t, "-kind", "grid", "-rows", "3", "-cols", "3", "-view", "primal")
	cmdtest.ExpectMarkers(t, out, "digraph primal", "->")
}

func TestSmokeDual(t *testing.T) {
	out := cmdtest.RunMain(t, "-kind", "grid", "-rows", "3", "-cols", "3", "-view", "dual")
	cmdtest.ExpectMarkers(t, out, "digraph dual", "darts)")
}

func TestSmokeBDD(t *testing.T) {
	out := cmdtest.RunMain(t, "-kind", "triangulation", "-n", "200", "-view", "bdd")
	cmdtest.ExpectMarkers(t, out, "digraph bdd", "lvl 1", "parts)", "|S_X|=", "b0 -> b")
}
