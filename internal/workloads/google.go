package workloads

import (
	"voyager/internal/memsim"
	"voyager/internal/trace"
)

// The Google search and ads traces in the paper come from production
// servers: they have an order of magnitude more PCs than SPEC/GAP (Table 2:
// 6.7k and 21k), huge footprints, and so little per-PC regularity that
// idealized ISB reaches only 13.8% / 26.2% unified accuracy/coverage.
//
// Our stand-ins reproduce those characteristics with two OLTP-style
// serving loops:
//
//   - search: an inverted-index query server. Each query hashes its terms,
//     walks postings lists (sequential within a list), and scores documents
//     (irregular doc-metadata loads). Query handling is spread across many
//     "handler clones" — distinct PC blocks that model the heavily inlined
//     production binary — so per-PC streams are sparse and noisy.
//   - ads: a feature-store scoring server. Each request chases a user
//     profile hash chain, gathers features from many tables, walks a
//     candidate-ad list, and loads per-ad model weights. More handler
//     clones and more tables than search give it the larger PC count.
//
// Both keep Zipfian popularity (hot terms/users repeat — learnable) and a
// steadily growing cold region (fresh docs/users — compulsory misses).

// Search generates the search-like OLTP trace.
func Search(cfg Config) *trace.Trace {
	rng := cfg.rng()
	s := cfg.scale()
	nTerms := 5_000 * s
	nDocs := 20_000 * s
	postingsPerTerm := 24
	handlers := 96

	rec := memsim.NewRecorder("search")
	hp := memsim.NewHeap(0x200_0000)
	hashTbl := hp.NewArray(1<<15*s, 16)
	postings := hp.NewArray(nTerms*postingsPerTerm, 8)
	docMeta := hp.NewArray(nDocs, 64)
	scoreBuf := hp.NewArray(4_096, 8)

	// Handler clones: each clone has its own PC block(s), modeling the
	// large inlined code footprint of the production server.
	pcs := memsim.NewPCs(0x600000)
	type handlerPCs struct {
		hash, post, doc, score uint64
	}
	hpcs := make([]handlerPCs, handlers)
	for i := range hpcs {
		b := pcs.Block()
		hpcs[i] = handlerPCs{hash: b.Site(), post: b.Site(), doc: b.Site(), score: b.Site()}
	}

	termPop := zipf(rng, 1.2, nTerms)
	docOf := make([]int32, nTerms*postingsPerTerm)
	for i := range docOf {
		docOf[i] = int32(rng.Intn(nDocs))
	}

	coldDoc := nDocs // fresh docs appear over time → compulsory misses
	queries := 0
	for {
		h := hpcs[rng.Intn(handlers)]
		nQueryTerms := 2 + rng.Intn(3)
		rec.Work(20)
		for t := 0; t < nQueryTerms; t++ {
			term := int(termPop.Uint64())
			// Hash probe: 1-2 chained bucket loads.
			bucket := int(int64(term) * 2654435761 & int64(hashTbl.Len-1))
			rec.Load(h.hash, hashTbl.Addr(bucket))
			if rng.Float64() < 0.3 {
				rec.Load(h.hash, hashTbl.Addr((bucket+1)&(hashTbl.Len-1)))
			}
			// Postings walk: sequential within the term's list.
			base := term * postingsPerTerm
			n := 6 + rng.Intn(postingsPerTerm-6)
			for k := 0; k < n; k++ {
				rec.Load(h.post, postings.Addr(base+k))
				doc := int(docOf[base+k])
				rec.Load(h.doc, docMeta.Addr(doc))
				rec.Work(2)
			}
			rec.Load(h.score, scoreBuf.Addr(term&(scoreBuf.Len-1)))
		}
		// Index growth: occasionally touch brand-new doc metadata.
		if rng.Float64() < 0.15 {
			fresh := hp.NewArray(16, 64)
			for i := 0; i < fresh.Len; i++ {
				rec.Load(h.doc, fresh.Addr(i))
			}
			coldDoc += 16
		}
		queries++
		if cfg.MaxAccesses > 0 && rec.Trace.Len() >= cfg.MaxAccesses {
			break
		}
		if queries > 10_000_000 {
			break
		}
	}
	return cfg.finish(rec.Trace)
}

// Ads generates the ads-like OLTP trace.
func Ads(cfg Config) *trace.Trace {
	rng := cfg.rng()
	s := cfg.scale()
	nUsers := 30_000 * s
	nAds := 12_000 * s
	nTables := 32
	tableSize := 4_096 * s
	handlers := 192

	rec := memsim.NewRecorder("ads")
	hp := memsim.NewHeap(0x400_0000)
	users := hp.NewArray(nUsers, 128)
	adList := hp.NewArray(nAds, 16)
	adWeights := hp.NewArray(nAds, 64)
	tables := make([]memsim.Array, nTables)
	for i := range tables {
		tables[i] = hp.NewArray(tableSize, 32)
	}

	pcs := memsim.NewPCs(0x800000)
	type handlerPCs struct {
		user, feat, cand, weight, aux uint64
	}
	hpcs := make([]handlerPCs, handlers)
	for i := range hpcs {
		b := pcs.Block()
		hpcs[i] = handlerPCs{user: b.Site(), feat: b.Site(), cand: b.Site(), weight: b.Site(), aux: b.Site()}
	}

	userPop := zipf(rng, 1.1, nUsers)
	requests := 0
	for {
		h := hpcs[rng.Intn(handlers)]
		user := int(userPop.Uint64())
		rec.Work(24)
		// Profile hash chain: 1-3 loads.
		rec.Load(h.user, users.Addr(user))
		for c := 0; c < rng.Intn(3); c++ {
			rec.Load(h.user, users.Addr((user+c*7)%nUsers))
		}
		// Feature gathering: a per-user fixed subset of tables, so popular
		// users produce repeating (learnable) feature sequences.
		nFeats := 12 + rng.Intn(8)
		for f := 0; f < nFeats; f++ {
			tbl := (user*31 + f*17) % nTables
			slot := int((int64(user)*131071 + int64(f)*8191) % int64(tableSize))
			rec.Load(h.feat, tables[tbl].Addr(slot))
			rec.Work(2)
		}
		// Candidate walk + model-weight loads.
		start := int(int64(user) * 2654435761 % int64(nAds))
		nCand := 8 + rng.Intn(8)
		for k := 0; k < nCand; k++ {
			ad := (start + k*3) % nAds
			rec.Load(h.cand, adList.Addr(ad))
			rec.Load(h.weight, adWeights.Addr(ad))
			rec.Work(3)
		}
		// New users/ads trickle in (compulsory misses).
		if rng.Float64() < 0.12 {
			fresh := hp.NewArray(8, 128)
			for i := 0; i < fresh.Len; i++ {
				rec.Load(h.aux, fresh.Addr(i))
			}
		}
		requests++
		if cfg.MaxAccesses > 0 && rec.Trace.Len() >= cfg.MaxAccesses {
			break
		}
		if requests > 10_000_000 {
			break
		}
	}
	return cfg.finish(rec.Trace)
}
