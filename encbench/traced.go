package main

import (
	"fmt"
	"io"
)

// runTraced is the per-layer run. Each workload runs once untraced and
// once with spans around every call into a layer; the difference in wall
// time is that workload's tracing overhead. Every workload runs, whatever
// the command named, so each traced result carries every layer's metrics.
func runTraced(cfg settings, tr *tracer, log io.Writer) result {
	var t tally
	m := map[string]metric{}
	put := func(add map[string]metric) {
		for k, v := range add {
			m[k] = v
		}
	}

	base, err := timeCampaign(cfg, 0)
	if err != nil {
		t.fail("campaign: %v", err)
	} else {
		checkCampaign(base.run, &t)
		fmt.Fprintf(log, "campaign counts: %s\n", campaignCounts(base.run))
		cm, ct := tracedCampaign(cfg, tr, base)
		t.add(ct)
		put(cm)
	}

	fw0, _ := figuresOnce(cfg, nil, &t)
	fw1, _ := figuresOnce(cfg, tr, &t)
	m["figures.trace_overhead_s"] = metric{(fw1 - fw0).Seconds(), "s"}
	for _, f := range figures {
		m["exp."+f.name+"_ms"] = metric{ms(tr.total("exp." + f.name)), "ms"}
	}
	put(tracedGrid(cfg, tr, &t))

	s0 := staticOnce(cfg, nil, &t)
	s1 := staticOnce(cfg, tr, &t)
	if s0.ops != s1.ops || s0.classes != s1.classes {
		t.fail("static: traced pass counted %d ops and %d classes, untraced %d and %d",
			s1.ops, s1.classes, s0.ops, s0.classes)
	}
	fmt.Fprintf(log, "static counts: traces=%d ops=%d classes=%d\n", tr.count("check.lint"), s1.ops, s1.classes)
	put(map[string]metric{
		"static.trace_overhead_s": {(s1.wall - s0.wall).Seconds(), "s"},
		"static.trace_ms":         {ms(tr.total("static.trace")), "ms"},
		"check.lint_ms":           {ms(tr.total("check.lint")), "ms"},
		"verify.verify_ms":        {ms(tr.total("verify.verify")), "ms"},
		"prune.compute_ms":        {ms(tr.total("prune.compute")), "ms"},
		"prune.check_ms":          {ms(tr.total("prune.check")), "ms"},
		"prune.classes":           {float64(s1.classes), "count"},
		"static.ops":              {float64(s1.ops), "count"},
	})
	return finish(m, t, log)
}
