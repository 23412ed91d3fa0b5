package main

import (
	"testing"

	"stac/internal/model"
	"stac/internal/proof"
)

// observedLike builds a TCP-run record whose verdicts equal the
// reference's, as a correct run produces.
func observedLike(ref *passResult) *loadRun {
	lr := &loadRun{}
	for _, v := range ref.verdicts {
		lr.agents = append(lr.agents, &agentRun{verdicts: append([]verdict(nil), v...)})
	}
	return lr
}

func TestInjectedVerdictMismatchFailsTheRun(t *testing.T) {
	spec, _ := lookupWorkload("roam-churn")
	in := generate(spec, 3, 1)
	co, err := newCoalition(in)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := co.run(in, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if ref.denies == 0 || ref.denies == ref.accesses {
		t.Fatalf("roam-churn reference has %d denies of %d accesses; want a mix", ref.denies, ref.accesses)
	}

	lr := observedLike(ref)
	problems, attempted, failed := checkRun(in, lr, ref, nil)
	if len(problems) != 0 || failed != 0 || attempted != ref.accesses {
		t.Fatalf("clean run: %d problems, %d failed, %d attempted of %d", len(problems), failed, attempted, ref.accesses)
	}
	if code := exitCode(result{Correct: true, Attempted: attempted}); code != 0 {
		t.Fatalf("clean run exits %d", code)
	}

	// Flip one verdict of agent 1: the check must name it, count it
	// and turn it into a non-zero exit.
	v := &lr.agents[1].verdicts[5]
	if *v == grant {
		*v = deny
	} else {
		*v = grant
	}
	problems, _, failed = checkRun(in, lr, ref, nil)
	if len(problems) != 1 || failed != 1 || problems[0].idx != 5 {
		t.Fatalf("injected mismatch: problems %+v, failed %d", problems, failed)
	}
	if code := exitCode(result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed}); code == 0 {
		t.Fatal("a verdict mismatch must give a non-zero exit")
	}

	// The traced run's verdicts are checked the same way.
	traced := &passResult{verdicts: [][]verdict{ref.verdicts[0], lr.agents[1].verdicts}}
	if _, _, failed := checkRun(in, observedLike(ref), ref, traced); failed != 1 {
		t.Fatalf("traced-run mismatch counted %d failures, want 1", failed)
	}
}

func TestGrantChecks(t *testing.T) {
	spec, _ := lookupWorkload("tour-history")
	in := generate(spec, 5, 3)
	signer := proof.NewSigner([]byte(in.key))
	a := model.Access{Object: "w0", Op: model.OpRead, Resource: "f2", Server: "s3"}
	good := grantRecord{idx: 0, access: a, data: in.content["s3"]["f2"], proof: signer.Issue(a, 1.5)}
	if bad := checkGrants(0, []grantRecord{good}, in, signer); len(bad) != 0 {
		t.Fatalf("a correct grant was flagged: %+v", bad)
	}

	wrongData := good
	wrongData.idx, wrongData.data = 1, []byte("stale")
	other := a
	other.Resource = "f3"
	wrongAccess := good
	wrongAccess.idx, wrongAccess.proof = 2, signer.Issue(other, 1.5)
	forged := good
	forged.idx, forged.proof = 3, proof.NewSigner([]byte("another key")).Issue(a, 1.5)
	bad := checkGrants(0, []grantRecord{wrongData, wrongAccess, forged}, in, signer)
	if failures(bad) != 3 {
		t.Fatalf("tampered grants: %d failures (%+v), want 3", failures(bad), bad)
	}
}
