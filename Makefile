# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keep them in sync.

GO ?= go

.PHONY: build test vet atest lint size

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet builds the repository's analysis suite (cmd/parborvet) and runs
# it over the whole tree — internal/..., cmd/..., and examples/... —
# through the go vet vettool protocol. DESIGN.md sections 10 and 15
# document the analyzers and the //parbor: annotation contract
# (hotpath, planebuild, wallclock, guardedby, unsync, droperr).
vet:
	$(GO) build -o parborvet ./cmd/parborvet
	$(GO) vet -vettool=$(CURDIR)/parborvet ./...

# atest runs the analyzers' own fixture harness (each pass against
# its testdata module, plus the knownbad fires-exactly-once
# accounting) under the race detector, matching CI's lint job.
atest:
	$(GO) test -race -count=1 ./internal/analyzers/... ./cmd/parborvet

# size prints the design metrics: non-test LOC, then exported
# funcs/methods, over the non-test .go files outside vendor/, bench/
# and testdata/.
SIZE_FILES = find . -name '*.go' ! -name '*_test.go' -not -path './vendor/*' -not -path './bench/*' -not -path '*/testdata/*'
size:
	@printf 'non-test LOC:            '; $(SIZE_FILES) | xargs cat | wc -l
	@printf 'exported funcs/methods:  '; $(SIZE_FILES) | xargs grep -hE '^func (\([^)]*\) )?[A-Z]' | wc -l

# lint adds the pinned external checkers on top of vet. These download
# on first use, so unlike vet they need network access.
lint: vet
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...
