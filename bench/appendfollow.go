package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
)

// appendSample is one append, timed from the POST to the moment the
// follower both reports the next epoch and answers a probe from it.
type appendSample struct {
	dataset string
	visible time.Duration
	ship    time.Duration // leader job finished -> follower epoch observed
	job     map[string]any
}

type replicaStatus struct {
	Epoch           int64 `json:"epoch"`
	Syncs           int64 `json:"syncs"`
	SectionsFetched int64 `json:"sectionsFetched"`
	SectionsReused  int64 `json:"sectionsReused"`
	BytesFetched    int64 `json:"bytesFetched"`
}

type jobReply struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Error    string         `json:"error"`
	Finished string         `json:"finished"`
	Result   map[string]any `json:"result"`
}

func runAppendFollow(e *env, r *result) error {
	city, err := fixedCity()
	if err != nil {
		return err
	}
	var hb heldBack
	end := corpusStart.AddDate(0, e.sz.demoMonths, 0)
	f, csvBytes, setupS, err := setupFleet(e, fleetOptions{followers: 1, graph: true, poll: 100 * time.Millisecond},
		func() ([]*dataset.Dataset, error) {
			ds, err := urbanCorpus(e.seed, city, e.sz.demoMonths, e.sz.demoScale)
			if err != nil {
				return nil, err
			}
			hb, err = holdBack(ds, end, e.sz.heldDays)
			return hb.initial, err
		})
	if err != nil {
		return err
	}
	defer f.stop()
	follower := f.followers[0]

	// Client B's queries: the pairs among four of the smaller appended data
	// sets. Small, so that the misses an epoch swap forces on the reader do
	// not drown the appends they run beside.
	var readable []string
	for _, name := range hb.names {
		switch name {
		case "calls_911", "collisions", "complaints_311", "citibike":
			readable = append(readable, name)
		}
	}
	var readerPool []querySpec
	for _, q := range signaturePool(readable) {
		if len(q.Clause.Classes) == 1 && q.Clause.Classes[0] == "salient" {
			readerPool = append(readerPool, q)
		}
	}
	if len(readerPool) == 0 {
		return fmt.Errorf("no reader query: appended data sets are %v", hb.names)
	}

	before, err := scrapeFleet(e, f)
	if err != nil {
		return err
	}
	cpu0, cpuBy0, err := f.cpu()
	if err != nil {
		return err
	}
	var status0 replicaStatus
	if err := e.getJSON(follower.url+"/v1/replica/status", &status0); err != nil {
		return err
	}

	// Client B: one closed-loop reader through the router for as long as
	// client A appends. After every epoch swap its first touch of each
	// signature is a miss on the fresh framework; everything else hits.
	window := e.tr.open(0, "window", "")
	stopReader := make(chan struct{})
	var readerWG sync.WaitGroup
	var reads []served
	var readerErr error
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopReader:
				return
			default:
			}
			q := readerPool[i%len(readerPool)]
			q.Trace = e.tr != nil
			res, rep, err := e.query(f.router.url, q)
			if err != nil {
				readerErr = err
				return
			}
			reads = append(reads, served{res.latency, rep.engineTime(), rep.Stats.CacheHit, rep.Stats.Coalesced, len(res.body)})
			if e.tr != nil {
				traceRequest(e.tr, window, fmt.Sprintf("r%d", i), res, rep)
			}
		}
	}()

	// Client A: whole rounds of one append per data set, a new one starting
	// under the same rule as a batch pass, at most the two slices held back.
	var samples []appendSample
	start := time.Now()
	epoch := status0.Epoch
	rounds := 0
	for round := 0; round < len(hb.slices); round++ {
		for i, name := range hb.names {
			s, err := appendAndFollow(e, f, name, hb.slices[round][i], epoch+1, window)
			if err != nil {
				close(stopReader)
				readerWG.Wait()
				return err
			}
			epoch++
			samples = append(samples, s)
		}
		rounds++
		if !e.timeForAnother(start) {
			break
		}
	}
	wall := time.Since(start)
	close(stopReader)
	readerWG.Wait()
	e.tr.finish(window, map[string]float64{"appends": float64(len(samples)), "reads": float64(len(reads))})
	if readerErr != nil {
		return fmt.Errorf("reader: %w", readerErr)
	}
	cpu1, cpuBy1, err := f.cpu()
	if err != nil {
		return err
	}
	after, err := scrapeFleet(e, f)
	if err != nil {
		return err
	}
	if err := f.crashed(); err != nil {
		return err
	}

	// Output checks. Every append job finished without falling back to a
	// rebuild; the follower's epoch advanced exactly once per append; and
	// after the last one the follower answers exactly as the leader does —
	// for each appended data set against weather, and for the reader pool.
	var status1 replicaStatus
	if err := e.getJSON(follower.url+"/v1/replica/status", &status1); err != nil {
		return err
	}
	r.check(status1.Epoch-status0.Epoch == int64(len(samples)),
		"follower epoch advanced %d times for %d appends", status1.Epoch-status0.Epoch, len(samples))
	for _, s := range samples {
		fell, _ := s.job["fellBack"].(bool)
		r.check(!fell, "append to %s fell back to a full rebuild", s.dataset)
	}
	digest := sha256.New()
	finals := append([]querySpec(nil), readerPool...)
	for _, name := range hb.names {
		finals = append(finals, querySpec{Sources: []string{name}, Targets: []string{"weather"},
			Clause: clauseSpec{SkipSignificance: true}})
	}
	for _, q := range finals {
		_, onFollower, err1 := e.query(follower.url, q)
		_, onLeader, err2 := e.query(f.leader.url, q)
		r.check(err1 == nil && err2 == nil && bytes.Equal(onFollower.relationships, onLeader.relationships),
			"%v ~ %v: follower differs from leader after the last append (%v, %v)", q.Sources, q.Targets, err1, err2)
		digest.Write(onLeader.relationships)
	}

	// The data sets differ 20x in what an append to them costs, so the
	// median over eight such appends jumps with whichever two land in the
	// middle. The end-to-end sample is therefore a round: the mean
	// append-to-visible latency over one append to every data set.
	var visible, ship, hits, roundMeans []float64
	for _, s := range samples {
		visible = append(visible, ms(s.visible))
		ship = append(ship, ms(s.ship))
	}
	for i := 0; i+len(hb.names) <= len(visible); i += len(hb.names) {
		roundMeans = append(roundMeans, sum(visible[i:i+len(hb.names)])/float64(len(hb.names)))
	}
	for _, s := range reads {
		if s.hit && !s.coalesce {
			hits = append(hits, ms(s.latency))
		}
	}
	if len(hits) == 0 {
		return fmt.Errorf("the reader saw no cache hit in %d reads", len(reads))
	}
	rss, rssBy, err := f.peakRSS()
	if err != nil {
		return err
	}
	st, err := os.Stat(f.snapshot)
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)
	r.set("cold_ms", median(roundMeans))
	r.set("warm_ms", median(hits))
	r.set("snapshot_bytes_per_csv_byte", float64(st.Size())/float64(csvBytes+hb.bytes))
	r.set("peak_rss_mb", rss)
	r.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(len(samples)))
	r.note("appends=%d (rounds=%d of %d data sets) reads=%d hits=%d wall=%.2fs", len(samples), rounds, len(hb.names), len(reads), len(hits), wall.Seconds())
	r.note("digest=%x", digest.Sum(nil)[:8])

	if e.tr == nil {
		return nil
	}
	r.set("trace.cold_ms", median(roundMeans))
	r.set("trace.warm_ms", median(hits))
	r.set("append_visible_p50_ms", median(visible))
	r.set("query_hit_p50_ms", median(hits))
	r.set("query_hit_p90_ms", percentile(hits, 90))
	r.set("query_qps", float64(len(reads))/wall.Seconds())
	r.set("failed_share", float64(r.failed)/float64(max(r.attempted, 1)))
	r.set("dataset.csv_bytes", float64(csvBytes+hb.bytes))
	r.set("store.snapshot_bytes", float64(st.Size()))
	r.set("query.engine_hit_us", 1000*median(engineTimes(reads, true)))
	fleetLayers(r, f, before, after, cpuBy0, cpuBy1, rssBy)
	requestLayers(e, r, window)

	var tilesComputed, tilesReused, dropped float64
	for _, s := range samples {
		tilesComputed += num(s.job["tilesComputed"])
		tilesReused += num(s.job["tilesReused"])
		dropped += num(s.job["graphPairsDropped"])
	}
	n := float64(len(samples))
	lb, la := before["leader"], after["leader"]
	r.set("append.tiles_computed", tilesComputed)
	r.set("append.tiles_reused", tilesReused)
	r.set("append.graph_pairs_dropped", dropped)
	r.set("append.slice_s", delta(lb, la, "polygamy_append_duration_seconds_sum")/n)
	r.set("append.graph_refresh_s", delta(lb, la, "polygamy_graph_build_duration_seconds_sum")/n)
	r.set("append.resave_s", delta(lb, la, "polygamy_snapshot_save_duration_seconds_sum")/n)
	r.set("append.fallbacks", delta(lb, la, "polygamy_append_fallbacks_total"))
	r.set("store.save_s", delta(lb, la, "polygamy_snapshot_save_duration_seconds_sum")/n)
	r.set("replica.ship_ms", median(ship))
	r.set("replica.append_max_ms", percentile(visible, 100))
	r.set("replica.syncs", float64(status1.Syncs-status0.Syncs))
	r.set("replica.sections_fetched", float64(status1.SectionsFetched-status0.SectionsFetched))
	r.set("replica.sections_reused", float64(status1.SectionsReused-status0.SectionsReused))
	r.set("replica.bytes_fetched", float64(status1.BytesFetched-status0.BytesFetched))
	r.note("exact-repeat counts: append.tiles_computed=%.0f append.tiles_reused=%.0f append.graph_pairs_dropped=%.0f replica.bytes_fetched=%d",
		tilesComputed, tilesReused, dropped, status1.BytesFetched-status0.BytesFetched)
	return nil
}

// appendAndFollow posts one slice to the leader and waits until the
// follower serves it: its status reports wantEpoch and it has answered a
// probe about the appended data set from that epoch.
func appendAndFollow(e *env, f *fleet, name string, slice []byte, wantEpoch int64, window int) (appendSample, error) {
	s := appendSample{dataset: name}
	follower := f.followers[0]
	t0 := time.Now()
	res, err := e.post(f.leader.url+"/v1/datasets/"+name+"/append", "text/csv", slice)
	if err != nil {
		return s, err
	}
	if res.status != http.StatusAccepted {
		return s, fmt.Errorf("append to %s: status %d: %s", name, res.status, firstLine(res.body))
	}
	var accepted struct {
		Job jobReply `json:"job"`
	}
	if err := json.Unmarshal(res.body, &accepted); err != nil {
		return s, err
	}
	tAccepted := time.Now()

	deadline := t0.Add(2 * time.Minute)
	var tEpoch time.Time
	for {
		var st replicaStatus
		if err := e.getJSON(follower.url+"/v1/replica/status", &st); err != nil {
			return s, err
		}
		if st.Epoch >= wantEpoch {
			tEpoch = time.Now()
			if st.Epoch != wantEpoch {
				return s, fmt.Errorf("append to %s: follower at epoch %d, expected %d", name, st.Epoch, wantEpoch)
			}
			break
		}
		if err := f.crashed(); err != nil {
			return s, err
		}
		if time.Now().After(deadline) {
			var job jobReply
			e.getJSON(f.leader.url+"/v1/jobs/"+accepted.Job.ID, &job)
			return s, fmt.Errorf("append to %s never reached the follower (job %s: %s %s)\n%s",
				name, job.ID, job.Status, job.Error, f.leader.logTail())
		}
		time.Sleep(10 * time.Millisecond)
	}
	probe := querySpec{Sources: []string{name}, Targets: []string{"weather"}, Clause: clauseSpec{SkipSignificance: true}}
	if _, _, err := e.query(follower.url, probe); err != nil {
		return s, fmt.Errorf("probe after append to %s: %w", name, err)
	}
	t1 := time.Now()
	s.visible = t1.Sub(t0)

	var job jobReply
	if err := e.getJSON(f.leader.url+"/v1/jobs/"+accepted.Job.ID, &job); err != nil {
		return s, err
	}
	if job.Status != "done" {
		return s, fmt.Errorf("append job %s for %s is %q: %s", job.ID, name, job.Status, job.Error)
	}
	s.job = job.Result
	finished, err := time.Parse(time.RFC3339Nano, job.Finished)
	if err != nil {
		return s, err
	}
	s.ship = tEpoch.Sub(finished)

	id := e.tr.add(window, "append", name, t0, t1, nil)
	e.tr.add(id, "leader.accept", name, t0, tAccepted, nil)
	e.tr.add(id, "leader.job", name, tAccepted, finished, nil)
	e.tr.add(id, "replica.ship", name, finished, tEpoch, nil)
	e.tr.add(id, "follower.probe", name, tEpoch, t1, nil)
	return s, nil
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}
