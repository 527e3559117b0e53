package store

import "context"

// RenderedFanout runs one catalog fan-out and renders it the way the
// /query handler (perDoc false) or FanoutLocal (perDoc true) does, with
// a budget of max addresses. It reports how many planner fallbacks ran
// inside the fan-out and how many while rendering.
func (s *Store) RenderedFanout(q string, max int, perDoc bool) (resp *FanoutResponse, inFanout, inRender uint64, err error) {
	budget := pathBudget{max: max, perDoc: perDoc}
	f0 := s.m.planFallback.Value()
	results, tr, err := s.fanout(context.Background(), q, false, nil, budget)
	s.CloseTrace(tr, err)
	if err != nil {
		return nil, 0, 0, err
	}
	f1 := s.m.planFallback.Value()
	resp = renderFanout(q, results, budget, s.Workers())
	return resp, f1 - f0, s.m.planFallback.Value() - f1, nil
}
