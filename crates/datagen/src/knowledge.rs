//! Knowledge-base simulators (DBpedia-like and YAGO2-like).
//!
//! The generators reproduce the schema fragments the paper's rules touch:
//!
//! * **institutions** with `wasCreatedOnDate` / `wasDestroyedOnDate` edges
//!   to date nodes (φ1, Figure 1 G1);
//! * **areas** (villages) with `femalePopulation` / `malePopulation` /
//!   `populationTotal` edges to integer nodes (φ2, Figure 1 G2);
//! * **places** grouped into regions via `partOf`, each with `population`
//!   and `populationRank` integer nodes tied to a per-region census date
//!   (φ3, Figure 1 G3);
//! * **persons** with `birthYear` and `category` (NGD1 of Exp-5);
//! * **competitions** with `competitors` / `nations` counts and an
//!   `includes` edge to an event (NGD2);
//! * **teams** and **drivers** with `numberOfWins` attributes and shared
//!   `year` nodes (NGD3).
//!
//! A configurable fraction of entities in every family is seeded with an
//! inconsistency; the returned [`GeneratedGraph`] records exactly which
//! ones, so the effectiveness study (Exp-5) can be validated against the
//! ground truth.  Detection never reads the ground truth — only the graph.

use crate::dataset::GeneratedGraph;
use crate::rng::StdRng;
use ngd_graph::{intern, AttrMap, NodeId, Sym, Value};

/// Configuration of the knowledge-base simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnowledgeConfig {
    /// Number of regions (states); each region groups `places_per_region`
    /// places under a shared census.
    pub regions: usize,
    /// Places per region.
    pub places_per_region: usize,
    /// Villages with female/male/total population triples.
    pub areas: usize,
    /// Institutions with creation/destruction dates.
    pub institutions: usize,
    /// Persons with birth year and category.
    pub persons: usize,
    /// Competitions (half of them Olympic).
    pub competitions: usize,
    /// Formula-One teams, two drivers each.
    pub teams: usize,
    /// Number of rule-irrelevant `linksTo` edges between entities.  Real
    /// knowledge bases carry hundreds of edge types of which the data
    /// quality rules touch a handful (DBpedia has 160 edge types); these
    /// filler links reproduce that ratio, which is what makes incremental
    /// detection pay off — most updated edges trigger no pivot at all.
    pub filler_links: usize,
    /// Fraction of entities per family seeded with an inconsistency.
    pub error_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl KnowledgeConfig {
    /// A DBpedia-like mix (all entity families present), scaled by `scale`.
    ///
    /// `scale = 1` produces a graph of a few hundred nodes; the experiment
    /// harness uses scales in the hundreds to thousands.
    pub fn dbpedia_like(scale: usize) -> Self {
        let s = scale.max(1);
        KnowledgeConfig {
            regions: 2 * s,
            places_per_region: 8,
            areas: 10 * s,
            institutions: 10 * s,
            persons: 20 * s,
            competitions: 5 * s,
            teams: 5 * s,
            filler_links: 400 * s,
            error_rate: 0.05,
            seed: 0xD8BED1A,
        }
    }

    /// A YAGO2-like mix: mostly institutions with dates and villages with
    /// population splits (the two Yago examples of the paper), fewer of the
    /// DBpedia-specific families.
    pub fn yago_like(scale: usize) -> Self {
        let s = scale.max(1);
        KnowledgeConfig {
            regions: s,
            places_per_region: 5,
            areas: 25 * s,
            institutions: 25 * s,
            persons: 10 * s,
            competitions: 0,
            teams: 0,
            filler_links: 300 * s,
            error_rate: 0.05,
            seed: 0x9A60,
        }
    }

    /// Builder-style setter for the error rate.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// Builder-style setter for the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for KnowledgeConfig {
    fn default() -> Self {
        KnowledgeConfig::dbpedia_like(4)
    }
}

/// The simulator's alphabet — node labels, edge labels and attribute
/// names — interned once per [`generate_knowledge`] call, so the per-node,
/// per-edge and per-attribute work is a copy of a [`Sym`], not a lookup
/// in the process-wide interner.
struct Alphabet {
    institution: Sym,
    date: Sym,
    val: Sym,
    was_created_on_date: Sym,
    was_destroyed_on_date: Sym,
    area: Sym,
    integer: Sym,
    female_population: Sym,
    male_population: Sym,
    population_total: Sym,
    place: Sym,
    part_of: Sym,
    population: Sym,
    population_rank: Sym,
    person: Sym,
    string: Sym,
    birth_year: Sym,
    category: Sym,
    competition: Sym,
    event: Sym,
    kind: Sym,
    includes: Sym,
    competitors: Sym,
    nations: Sym,
    year: Sym,
    team: Sym,
    number_of_wins: Sym,
    driver: Sym,
    links_to: Sym,
}

impl Alphabet {
    fn new() -> Alphabet {
        Alphabet {
            institution: intern("institution"),
            date: intern("date"),
            val: intern("val"),
            was_created_on_date: intern("wasCreatedOnDate"),
            was_destroyed_on_date: intern("wasDestroyedOnDate"),
            area: intern("area"),
            integer: intern("integer"),
            female_population: intern("femalePopulation"),
            male_population: intern("malePopulation"),
            population_total: intern("populationTotal"),
            place: intern("place"),
            part_of: intern("partOf"),
            population: intern("population"),
            population_rank: intern("populationRank"),
            person: intern("person"),
            string: intern("string"),
            birth_year: intern("birthYear"),
            category: intern("category"),
            competition: intern("competition"),
            event: intern("event"),
            kind: intern("type"),
            includes: intern("includes"),
            competitors: intern("competitors"),
            nations: intern("nations"),
            year: intern("year"),
            team: intern("team"),
            number_of_wins: intern("numberOfWins"),
            driver: intern("driver"),
            links_to: intern("linksTo"),
        }
    }

    /// A node labelled `label` carrying one `val` attribute.
    fn value_node(&self, out: &mut GeneratedGraph, label: Sym, value: Value) -> NodeId {
        out.graph.add_node(label, attrs(self.val, value))
    }
}

/// A one-attribute tuple.
fn attrs(name: Sym, value: Value) -> AttrMap {
    let mut attrs = AttrMap::new();
    attrs.set(name, value);
    attrs
}

/// Add an edge the generator knows to be new.
fn link(out: &mut GeneratedGraph, src: NodeId, dst: NodeId, label: Sym) {
    out.graph
        .add_edge(src, dst, label)
        .expect("generated edges are distinct");
}

/// Generate a knowledge-base graph according to `config`.
pub fn generate_knowledge(config: &KnowledgeConfig) -> GeneratedGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = GeneratedGraph::default();
    let a = Alphabet::new();
    let seed_error = |rng: &mut StdRng| rng.gen_bool(config.error_rate.clamp(0.0, 1.0));

    generate_institutions(config, &a, &mut rng, &mut out, seed_error);
    generate_areas(config, &a, &mut rng, &mut out, seed_error);
    generate_regions(config, &a, &mut rng, &mut out);
    generate_persons(config, &a, &mut rng, &mut out, seed_error);
    generate_competitions(config, &a, &mut rng, &mut out, seed_error);
    generate_teams(config, &a, &mut rng, &mut out, seed_error);
    generate_filler_links(config, &a, &mut rng, &mut out);
    out
}

/// Rule-irrelevant `linksTo` edges between entity nodes (the bulk of a real
/// knowledge base).  Only entity-labelled nodes are linked, so the filler
/// never changes the truth value of any paper rule.
fn generate_filler_links(
    config: &KnowledgeConfig,
    a: &Alphabet,
    rng: &mut StdRng,
    out: &mut GeneratedGraph,
) {
    let entities: Vec<_> = [
        a.institution,
        a.area,
        a.place,
        a.person,
        a.competition,
        a.team,
    ]
    .iter()
    .flat_map(|&label| out.graph.nodes_with_label(label).to_vec())
    .collect();
    if entities.len() < 2 {
        return;
    }
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < config.filler_links && attempts < config.filler_links * 10 {
        attempts += 1;
        let src = entities[rng.gen_range(0..entities.len())];
        let dst = entities[rng.gen_range(0..entities.len())];
        if src == dst {
            continue;
        }
        if out.graph.add_edge(src, dst, a.links_to).is_ok() {
            added += 1;
        }
    }
}

/// Institutions: created on a random date, destroyed some years later —
/// unless seeded, in which case the destruction predates the creation (the
/// BBC-Trust error of Figure 1).  Violates φ1.
fn generate_institutions(
    config: &KnowledgeConfig,
    a: &Alphabet,
    rng: &mut StdRng,
    out: &mut GeneratedGraph,
    mut seed_error: impl FnMut(&mut StdRng) -> bool,
) {
    for _ in 0..config.institutions {
        let inst = out.graph.add_node(a.institution, AttrMap::new());
        let created_year = rng.gen_range(1900..2010);
        let lifetime_years = rng.gen_range(1..80);
        let bad = seed_error(rng);
        let destroyed_year = if bad {
            created_year - rng.gen_range(1..50)
        } else {
            created_year + lifetime_years
        };
        let created = a.value_node(out, a.date, Value::from_date(created_year, 1, 1));
        let destroyed = a.value_node(out, a.date, Value::from_date(destroyed_year, 6, 15));
        link(out, inst, created, a.was_created_on_date);
        link(out, inst, destroyed, a.was_destroyed_on_date);
        if bad {
            out.record_seed("phi1", inst);
        }
    }
}

/// Areas (villages): female + male = total, unless seeded (the Bhonpur
/// error).  Violates φ2.
fn generate_areas(
    config: &KnowledgeConfig,
    a: &Alphabet,
    rng: &mut StdRng,
    out: &mut GeneratedGraph,
    mut seed_error: impl FnMut(&mut StdRng) -> bool,
) {
    for _ in 0..config.areas {
        let area = out.graph.add_node(a.area, AttrMap::new());
        let female = rng.gen_range(100..5_000);
        let male = rng.gen_range(100..5_000);
        let bad = seed_error(rng);
        let total = if bad {
            female + male + rng.gen_range(1..500)
        } else {
            female + male
        };
        let f = a.value_node(out, a.integer, Value::Int(female));
        let m = a.value_node(out, a.integer, Value::Int(male));
        let t = a.value_node(out, a.integer, Value::Int(total));
        link(out, area, f, a.female_population);
        link(out, area, m, a.male_population);
        link(out, area, t, a.population_total);
        if bad {
            out.record_seed("phi2", area);
        }
    }
}

/// Regions of places with populations and ranks tied to a shared census.
/// Ranks are consistent with populations (rank 1 = most populous) unless a
/// region is seeded, in which case one adjacent pair of ranks is swapped —
/// exactly the Corona/Downey error of Figure 1.  Violates φ3.
fn generate_regions(
    config: &KnowledgeConfig,
    a: &Alphabet,
    rng: &mut StdRng,
    out: &mut GeneratedGraph,
) {
    for _ in 0..config.regions {
        let region = out.graph.add_node(a.place, AttrMap::new());
        let census = a.value_node(out, a.date, Value::from_date(2014, 4, 1));
        let count = config.places_per_region.max(2);
        // Distinct populations, descending so that index = rank − 1.
        let mut populations: Vec<i64> = (0..count)
            .map(|_| rng.gen_range(10_000..1_000_000))
            .collect();
        populations.sort_unstable_by(|a, b| b.cmp(a));
        populations.dedup();
        while populations.len() < count {
            populations.push(populations.last().copied().unwrap_or(10_000) - 1);
        }
        let mut ranks: Vec<i64> = (1..=count as i64).collect();
        let bad = rng.gen_bool(config.error_rate.clamp(0.0, 1.0)) && count >= 2;
        let swapped_at = if bad {
            let i = rng.gen_range(0..count - 1);
            ranks.swap(i, i + 1);
            Some(i)
        } else {
            None
        };
        for (idx, (&population, &rank)) in populations.iter().zip(ranks.iter()).enumerate() {
            let place = out.graph.add_node(a.place, AttrMap::new());
            let pop = a.value_node(out, a.integer, Value::Int(population));
            let rk = a.value_node(out, a.integer, Value::Int(rank));
            link(out, place, region, a.part_of);
            link(out, place, pop, a.population);
            link(out, place, rk, a.population_rank);
            link(out, pop, census, a.date);
            if idx >= 1 && swapped_at == Some(idx - 1) {
                // The less-populous place of the swapped pair (index i+1 of
                // the swap) is the `x` of the violating φ3 match: it has the
                // smaller population but the numerically smaller rank.
                out.record_seed("phi3", place);
            }
        }
    }
}

/// Persons with a birth year and a category string.  Seeded persons are
/// born before 1800 yet categorised as "living people" (NGD1).
fn generate_persons(
    config: &KnowledgeConfig,
    a: &Alphabet,
    rng: &mut StdRng,
    out: &mut GeneratedGraph,
    mut seed_error: impl FnMut(&mut StdRng) -> bool,
) {
    for _ in 0..config.persons {
        let person = out.graph.add_node(a.person, AttrMap::new());
        let bad = seed_error(rng);
        let (birth_year, category) = if bad {
            (rng.gen_range(1500..1800), "living people")
        } else if rng.gen_bool(0.5) {
            (rng.gen_range(1930..2005), "living people")
        } else {
            (rng.gen_range(1500..1900), "deceased")
        };
        let year = a.value_node(out, a.integer, Value::Int(birth_year));
        let cat = a.value_node(out, a.string, Value::Str(category.to_string()));
        link(out, person, year, a.birth_year);
        link(out, person, cat, a.category);
        if bad {
            out.record_seed("ngd1", person);
        }
    }
}

/// Competitions with competitor and nation counts; half of them belong to
/// an Olympic event.  Seeded Olympic competitions report more nations than
/// competitors (NGD2).
fn generate_competitions(
    config: &KnowledgeConfig,
    a: &Alphabet,
    rng: &mut StdRng,
    out: &mut GeneratedGraph,
    mut seed_error: impl FnMut(&mut StdRng) -> bool,
) {
    for i in 0..config.competitions {
        let comp = out.graph.add_node(a.competition, AttrMap::new());
        let olympic = i % 2 == 0;
        let kind = if olympic { "Olympic" } else { "Regional" };
        let event = out
            .graph
            .add_node(a.event, attrs(a.kind, Value::Str(kind.to_string())));
        let competitors = rng.gen_range(10..500);
        let bad = olympic && seed_error(rng);
        let nations = if bad {
            competitors + rng.gen_range(1..20)
        } else {
            rng.gen_range(1..=competitors)
        };
        let y = a.value_node(out, a.integer, Value::Int(competitors));
        let z = a.value_node(out, a.integer, Value::Int(nations));
        link(out, comp, event, a.includes);
        link(out, comp, y, a.competitors);
        link(out, comp, z, a.nations);
        if bad {
            out.record_seed("ngd2", comp);
        }
    }
}

/// Formula-One teams with two drivers each, all sharing a season (year)
/// node.  Seeded teams have fewer wins than their two drivers combined
/// (NGD3 — the Vettel/Verstappen error of Exp-5).
fn generate_teams(
    config: &KnowledgeConfig,
    a: &Alphabet,
    rng: &mut StdRng,
    out: &mut GeneratedGraph,
    mut seed_error: impl FnMut(&mut StdRng) -> bool,
) {
    for i in 0..config.teams {
        let season = 2000 + (i as i64 % 20);
        let year = a.value_node(out, a.year, Value::Int(season));
        let wins1: i64 = rng.gen_range(1..5);
        let wins2: i64 = rng.gen_range(1..5);
        let bad = seed_error(rng);
        let team_wins = if bad {
            // Strictly fewer wins than the two drivers combined.
            rng.gen_range(0..wins1 + wins2)
        } else {
            wins1 + wins2 + rng.gen_range(0..3)
        };
        let wins = |count: i64| attrs(a.number_of_wins, Value::Int(count));
        let team = out.graph.add_node(a.team, wins(team_wins));
        let d1 = out.graph.add_node(a.driver, wins(wins1));
        let d2 = out.graph.add_node(a.driver, wins(wins2));
        link(out, d1, team, a.team);
        link(out, d2, team, a.team);
        link(out, team, year, a.year);
        link(out, d1, year, a.year);
        link(out, d2, year, a.year);
        if bad {
            out.record_seed("ngd3", team);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_free_generation_has_no_seeds() {
        let config = KnowledgeConfig::dbpedia_like(2).with_error_rate(0.0);
        let generated = generate_knowledge(&config);
        assert_eq!(generated.seeded_count(), 0);
        assert!(generated.graph.node_count() > 100);
    }

    #[test]
    fn seeding_rate_controls_error_volume() {
        let none = generate_knowledge(&KnowledgeConfig::dbpedia_like(4).with_error_rate(0.0));
        let some = generate_knowledge(&KnowledgeConfig::dbpedia_like(4).with_error_rate(0.2));
        let all = generate_knowledge(&KnowledgeConfig::dbpedia_like(4).with_error_rate(1.0));
        assert_eq!(none.seeded_count(), 0);
        assert!(some.seeded_count() > 0);
        assert!(all.seeded_count() > some.seeded_count());
    }

    #[test]
    fn generation_is_deterministic() {
        let config = KnowledgeConfig::dbpedia_like(2).with_seed(11);
        let a = generate_knowledge(&config);
        let b = generate_knowledge(&config);
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_vec(), b.graph.edge_vec());
        assert_eq!(a.seeded, b.seeded);
    }

    #[test]
    fn yago_like_omits_dbpedia_specific_families() {
        let generated = generate_knowledge(&KnowledgeConfig::yago_like(2));
        assert!(generated
            .graph
            .nodes_with_label(intern("competition"))
            .is_empty());
        assert!(generated.graph.nodes_with_label(intern("team")).is_empty());
        assert!(!generated
            .graph
            .nodes_with_label(intern("institution"))
            .is_empty());
        assert!(!generated.graph.nodes_with_label(intern("area")).is_empty());
    }

    #[test]
    fn schema_families_are_present_in_dbpedia_like() {
        let generated = generate_knowledge(&KnowledgeConfig::dbpedia_like(1));
        for label in [
            "institution",
            "area",
            "place",
            "person",
            "competition",
            "team",
            "driver",
        ] {
            assert!(
                !generated.graph.nodes_with_label(intern(label)).is_empty(),
                "missing label {label}"
            );
        }
    }

    #[test]
    fn knowledge_graphs_are_sparse_like_the_paper_datasets() {
        // The paper reports densities around 6×10⁻⁷ for DBpedia/YAGO2; the
        // simulation is ~1000× smaller so its density is correspondingly
        // higher, but the graph must stay sparse (low average degree) for
        // the locality arguments to carry over.
        let generated = generate_knowledge(&KnowledgeConfig::dbpedia_like(8));
        let stats = generated.stats();
        assert!(stats.density < 1e-2, "density {} too high", stats.density);
        assert!(stats.avg_degree < 20.0, "avg degree {}", stats.avg_degree);
    }
}
