package experiments

import (
	"strings"
	"testing"
)

// These tests pin every experiment to the paper's expected shape; the IDs
// match DESIGN.md's experiment index.

func assertOK(t *testing.T, r *Report) {
	t.Helper()
	if !r.OK {
		t.Fatalf("%s failed:\n%s", r.ID, r.Body)
	}
}

func TestE1_UniversitySchema(t *testing.T) {
	r := E1SchemaParse()
	assertOK(t, r)
	for _, want := range []string{"entity  person", "subtype faculty", "UNIQUE [title semester] WITHIN course", "OVERLAP [student] WITH [faculty support_staff]"} {
		if !strings.Contains(r.Body, want) {
			t.Errorf("E1 missing %q:\n%s", want, r.Body)
		}
	}
}

func TestE2_FunctionalToNetwork(t *testing.T) {
	r := E2Transform()
	assertOK(t, r)
	if !strings.Contains(r.Body, "RECORD NAME IS LINK_1") {
		t.Error("E2 missing the LINK record")
	}
}

func TestE3_ABFunctionalMapping(t *testing.T) {
	assertOK(t, E3ABMapping())
}

func TestE4_EntityAndSubtypeGoldens(t *testing.T) {
	assertOK(t, E4EntitySubtypeGoldens())
}

func TestE5_Translations(t *testing.T) {
	r := E5Translations()
	assertOK(t, r)
	if strings.Contains(r.Body, "!! aborted") {
		t.Errorf("E5 had aborted statements:\n%s", r.Body)
	}
}

func TestE6_ResponseTimeReciprocal(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	assertOK(t, E6BackendsScaling())
}

func TestE7_CapacityInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	assertOK(t, E7CapacityGrowth())
}

func TestE8_CrossModelEquivalence(t *testing.T) {
	assertOK(t, E8CrossModel())
}

func TestE9_SharedKernel(t *testing.T) {
	assertOK(t, E9SharedKernel())
}

func TestAblation_IndexVsScan(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	assertOK(t, AblationIndexVsScan())
}

func TestAblation_DirectVsPreprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	assertOK(t, AblationDirectVsPreprocess())
}

func TestE10_FiveInterfaces(t *testing.T) {
	r := E10FiveInterfaces()
	assertOK(t, r)
	for _, want := range []string{"functional/Daplex", "network/CODASYL-DML", "relational/SQL", "hierarchical/DL-I", "attribute-based/ABDL"} {
		if !strings.Contains(r.Body, want) {
			t.Errorf("E10 missing %q:\n%s", want, r.Body)
		}
	}
}
